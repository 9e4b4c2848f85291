//===- tests/graph_io_test.cpp - Unit tests for graph IO ------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "graph/Builder.h"
#include "graph/Generators.h"
#include "graph/GraphIO.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace graphit;

namespace {

/// Creates a per-test temp path and removes it on destruction.
class TempFile {
public:
  explicit TempFile(const std::string &Suffix) {
    const ::testing::TestInfo *Info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    Path = std::filesystem::temp_directory_path() /
           (std::string("graphit_") + Info->test_suite_name() + "_" +
            Info->name() + Suffix);
  }
  ~TempFile() { std::filesystem::remove(Path); }
  std::string str() const { return Path.string(); }

private:
  std::filesystem::path Path;
};

} // namespace

TEST(GraphIO, EdgeListRoundTripWeighted) {
  TempFile File(".wel");
  std::vector<Edge> Edges = {{0, 1, 5}, {1, 2, 7}, {4, 0, 2}};
  writeEdgeList(File.str(), Edges, /*Weighted=*/true);
  EdgeListFile Loaded = readEdgeList(File.str());
  EXPECT_TRUE(Loaded.Weighted);
  EXPECT_EQ(Loaded.NumNodes, 5);
  ASSERT_EQ(Loaded.Edges.size(), 3u);
  EXPECT_EQ(Loaded.Edges[1].Src, 1u);
  EXPECT_EQ(Loaded.Edges[1].Dst, 2u);
  EXPECT_EQ(Loaded.Edges[1].W, 7);
}

TEST(GraphIO, EdgeListRoundTripUnweighted) {
  TempFile File(".el");
  std::vector<Edge> Edges = {{0, 1, 1}, {1, 2, 1}};
  writeEdgeList(File.str(), Edges, /*Weighted=*/false);
  EdgeListFile Loaded = readEdgeList(File.str());
  EXPECT_FALSE(Loaded.Weighted);
  ASSERT_EQ(Loaded.Edges.size(), 2u);
  EXPECT_EQ(Loaded.Edges[0].W, 1);
}

TEST(GraphIO, EdgeListSkipsCommentsAndBlankLines) {
  TempFile File(".el");
  {
    std::ofstream Out(File.str());
    Out << "# a comment\n\n0 1\n# another\n1 2\n";
  }
  EdgeListFile Loaded = readEdgeList(File.str());
  EXPECT_EQ(Loaded.Edges.size(), 2u);
}

TEST(GraphIO, DimacsRoundTrip) {
  TempFile File(".gr");
  std::vector<Edge> Edges = {{0, 1, 10}, {2, 0, 3}};
  writeDimacsGraph(File.str(), 3, Edges);
  EdgeListFile Loaded = readDimacsGraph(File.str());
  EXPECT_EQ(Loaded.NumNodes, 3);
  ASSERT_EQ(Loaded.Edges.size(), 2u);
  EXPECT_EQ(Loaded.Edges[0].Src, 0u);
  EXPECT_EQ(Loaded.Edges[0].Dst, 1u);
  EXPECT_EQ(Loaded.Edges[0].W, 10);
  EXPECT_EQ(Loaded.Edges[1].Src, 2u);
}

TEST(GraphIO, DimacsIgnoresComments) {
  TempFile File(".gr");
  {
    std::ofstream Out(File.str());
    Out << "c generated\np sp 2 1\nc arc next\na 1 2 4\n";
  }
  EdgeListFile Loaded = readDimacsGraph(File.str());
  EXPECT_EQ(Loaded.NumNodes, 2);
  ASSERT_EQ(Loaded.Edges.size(), 1u);
  EXPECT_EQ(Loaded.Edges[0].W, 4);
}

TEST(GraphIO, DimacsLongCommentLine) {
  // A comment longer than any internal read buffer used to split, with the
  // tail tripping fatalError("unrecognized DIMACS line").
  TempFile File(".gr");
  {
    std::ofstream Out(File.str());
    Out << "c " << std::string(10000, 'x') << "\n";
    Out << "p sp 3 2\n";
    Out << "c " << std::string(5000, 'a') << " 1 2 3\n";
    Out << "a 1 2 4\n";
    Out << "a 2 3 7\n";
  }
  EdgeListFile Loaded = readDimacsGraph(File.str());
  EXPECT_EQ(Loaded.NumNodes, 3);
  ASSERT_EQ(Loaded.Edges.size(), 2u);
  EXPECT_EQ(Loaded.Edges[1].Src, 1u);
  EXPECT_EQ(Loaded.Edges[1].Dst, 2u);
  EXPECT_EQ(Loaded.Edges[1].W, 7);
}

TEST(GraphIO, DimacsCarriageReturns) {
  TempFile File(".gr");
  {
    std::ofstream Out(File.str());
    Out << "c exported from a Windows tool\r\n"
        << "p sp 2 1\r\n"
        << "a 1 2 9\r\n"
        << "\r\n";
  }
  EdgeListFile Loaded = readDimacsGraph(File.str());
  EXPECT_EQ(Loaded.NumNodes, 2);
  ASSERT_EQ(Loaded.Edges.size(), 1u);
  EXPECT_EQ(Loaded.Edges[0].W, 9);
}

TEST(GraphIO, EdgeListLongCommentAndCrLf) {
  TempFile File(".el");
  {
    std::ofstream Out(File.str());
    Out << "# " << std::string(8192, 'c') << "\r\n0 1 5\r\n1 2 6\r\n";
  }
  EdgeListFile Loaded = readEdgeList(File.str());
  EXPECT_TRUE(Loaded.Weighted);
  ASSERT_EQ(Loaded.Edges.size(), 2u);
  EXPECT_EQ(Loaded.Edges[0].W, 5);
  EXPECT_EQ(Loaded.Edges[1].W, 6);
}

TEST(GraphIO, DimacsCoordinatesLongCommentAndCr) {
  TempFile File(".co");
  {
    std::ofstream Out(File.str());
    Out << "c " << std::string(9000, 'y') << "\n"
        << "v 1 1.25 -3.5\r\n"
        << "v 2 0.5 2.0\n";
  }
  Coordinates Loaded = readDimacsCoordinates(File.str(), 2);
  ASSERT_EQ(Loaded.size(), 2);
  EXPECT_DOUBLE_EQ(Loaded.X[0], 1.25);
  EXPECT_DOUBLE_EQ(Loaded.Y[0], -3.5);
  EXPECT_DOUBLE_EQ(Loaded.Y[1], 2.0);
}

TEST(GraphIO, DimacsCoordinatesRoundTrip) {
  TempFile File(".co");
  Coordinates Coords;
  Coords.X = {1.5, -2.25};
  Coords.Y = {0.0, 99.5};
  writeDimacsCoordinates(File.str(), Coords);
  Coordinates Loaded = readDimacsCoordinates(File.str(), 2);
  ASSERT_EQ(Loaded.size(), 2);
  EXPECT_DOUBLE_EQ(Loaded.X[1], -2.25);
  EXPECT_DOUBLE_EQ(Loaded.Y[1], 99.5);
}

TEST(GraphIO, BinaryRoundTripDirectedWeighted) {
  TempFile File(".bin");
  std::vector<Edge> Edges = rmatEdges(8, 4, 3);
  assignRandomWeights(Edges, 1, 100, 5);
  Graph G = GraphBuilder().build(Count{1} << 8, Edges);
  saveBinaryGraph(G, File.str());
  Graph Loaded = loadBinaryGraph(File.str());

  ASSERT_EQ(Loaded.numNodes(), G.numNodes());
  ASSERT_EQ(Loaded.numEdges(), G.numEdges());
  ASSERT_EQ(Loaded.isSymmetric(), G.isSymmetric());
  ASSERT_TRUE(Loaded.hasInEdges());
  for (VertexId V = 0; V < G.numNodes(); ++V) {
    ASSERT_EQ(Loaded.outDegree(V), G.outDegree(V));
    auto A = Loaded.outNeighbors(V).begin();
    for (WNode E : G.outNeighbors(V)) {
      WNode L = *A;
      ASSERT_EQ(L.V, E.V);
      ASSERT_EQ(L.W, E.W);
      ++A;
    }
  }
}

TEST(GraphIO, BinaryRoundTripSymmetricWithCoordinates) {
  TempFile File(".bin");
  RoadNetwork Net = roadGrid(10, 10, 17);
  BuildOptions Options;
  Options.Symmetrize = true;
  Graph G = GraphBuilder(Options).build(Net.NumNodes, Net.Edges,
                                        std::move(Net.Coords));
  saveBinaryGraph(G, File.str());
  Graph Loaded = loadBinaryGraph(File.str());
  EXPECT_TRUE(Loaded.isSymmetric());
  EXPECT_EQ(Loaded.numEdges(), G.numEdges());
  ASSERT_TRUE(Loaded.hasCoordinates());
  EXPECT_DOUBLE_EQ(Loaded.coordinates().X[5], G.coordinates().X[5]);
}

//===----------------------------------------------------------------------===//
// Corrupted binary images
//===----------------------------------------------------------------------===//

namespace {

/// The fields of a binary image (64-bit offsets on disk), written one by
/// one so a test can corrupt any of them. As given: a valid directed
/// 2-cycle.
struct Image {
  uint64_t NumNodes = 2, NumEdges = 2, Symmetric = 0;
  std::vector<int64_t> Offsets = {0, 1, 2};
  std::vector<VertexId> Ids = {1, 0};
  std::vector<Weight> Ws = {7, 9};
  std::vector<double> X, Y;
};

template <typename T> void putVec(std::FILE *F, const std::vector<T> &V) {
  const uint64_t N = V.size();
  std::fwrite(&N, sizeof(N), 1, F);
  if (N)
    std::fwrite(V.data(), sizeof(T), N, F);
}

void writeImage(const std::string &Path, const Image &I) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  const uint64_t Magic = 0x4752495447524448ULL; // "GRITGRDH"
  const uint64_t Header[3] = {I.NumNodes, I.NumEdges, I.Symmetric};
  std::fwrite(&Magic, sizeof(Magic), 1, F);
  std::fwrite(Header, sizeof(Header), 1, F);
  putVec(F, I.Offsets);
  putVec(F, I.Ids);
  putVec(F, I.Ws);
  putVec(F, I.X);
  putVec(F, I.Y);
  std::fclose(F);
}

/// Loading a corrupted image dies with the message of the check it fails.
/// These binaries start OpenMP teams, so death tests re-execute the
/// binary instead of forking it.
class BinaryImageDeathTest : public ::testing::Test {
protected:
  void SetUp() override { GTEST_FLAG_SET(death_test_style, "threadsafe"); }

  void expectRejected(const Image &I, const char *Check) {
    TempFile File(".bin");
    writeImage(File.str(), I);
    EXPECT_DEATH(loadBinaryGraph(File.str()), Check);
  }
};

} // namespace

TEST(GraphIO, BinaryImageAsWrittenByHandLoads) {
  TempFile File(".bin");
  writeImage(File.str(), Image());
  const Graph G = loadBinaryGraph(File.str());
  ASSERT_EQ(G.numNodes(), 2);
  ASSERT_EQ(G.numEdges(), 2);
  EXPECT_EQ(G.outNeighbors(0).id(0), 1u);
  EXPECT_EQ(G.outNeighbors(1).weight(0), 9);
  EXPECT_EQ(G.inNeighbors(0).id(0), 1u);
}

TEST_F(BinaryImageDeathTest, OffsetCountMustBeVertexCountPlusOne) {
  Image I;
  I.Offsets = {0, 2};
  expectRejected(I, "offset count != vertex count");
}

TEST_F(BinaryImageDeathTest, FirstOffsetMustBeZero) {
  Image I;
  I.Offsets = {1, 1, 2};
  expectRejected(I, "first offset is not 0");
}

TEST_F(BinaryImageDeathTest, OffsetsMustNotDecrease) {
  Image I;
  I.Offsets = {0, 3, 2};
  expectRejected(I, "offsets decrease");
}

TEST_F(BinaryImageDeathTest, LastOffsetMustBeWithinTheLimit) {
  Image I;
  I.NumNodes = 1;
  I.NumEdges = uint64_t{1} << 32;
  I.Offsets = {0, int64_t{1} << 32};
  I.Ids.clear();
  I.Ws.clear();
  expectRejected(I, "binary graph: 4294967296 entries in one CSR direction "
                    "exceed the 32-bit row offset limit");
}

TEST_F(BinaryImageDeathTest, LastOffsetMustBeTheNeighborCount) {
  Image I;
  I.NumEdges = 3;
  I.Offsets = {0, 1, 3};
  expectRejected(I, "last offset != neighbor count");
}

TEST_F(BinaryImageDeathTest, LastOffsetMustBeTheHeaderEdgeCount) {
  Image I;
  I.NumEdges = 5;
  expectRejected(I, "last offset != header edge count");
}

TEST_F(BinaryImageDeathTest, WeightsMustMatchNeighbors) {
  Image I;
  I.Ws = {7};
  expectRejected(I, "weight count != neighbor count");
}

TEST_F(BinaryImageDeathTest, NeighborIdsMustBeBelowTheVertexCount) {
  Image I;
  I.Ids = {1, 2};
  expectRejected(I, "neighbor id >= vertex count");
}

TEST_F(BinaryImageDeathTest, CoordinateArraysMustBeEmptyOrVertexCountLong) {
  Image I;
  I.X = {0.5, 1.5};
  I.Y = {0.5};
  expectRejected(I, "coordinate count != vertex count");
}
