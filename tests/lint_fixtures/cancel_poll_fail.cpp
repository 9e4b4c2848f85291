// lint-expect: fail(cancel-poll)
//
// A round loop that drains buckets without ever polling cancellation: a
// query on a continental road network would hold its worker far past the
// deadline.
struct BucketQueue {
  bool nextBucket();
  long currentKey();
};

long drain(BucketQueue &Queue) {
  long Sum = 0;
  while (Queue.nextBucket()) {
    Sum += Queue.currentKey();
  }
  return Sum;
}
