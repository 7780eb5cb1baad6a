#include "cop/qkp_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace hycim::cop {
namespace {

constexpr const char* kSample =
    "sample_3\n"
    "3\n"
    "10 6 8\n"
    "3 7\n"
    "2\n"
    "\n"
    "0\n"
    "9\n"
    "4 7 2\n";

TEST(QkpIo, ParsesCnamFormat) {
  std::istringstream in(kSample);
  const QkpInstance inst = read_qkp(in);
  EXPECT_EQ(inst.name, "sample_3");
  EXPECT_EQ(inst.n, 3u);
  EXPECT_EQ(inst.capacity, 9);
  EXPECT_EQ(inst.weights, (std::vector<long long>{4, 7, 2}));
  EXPECT_EQ(inst.profit(0, 0), 10);
  EXPECT_EQ(inst.profit(1, 1), 6);
  EXPECT_EQ(inst.profit(2, 2), 8);
  EXPECT_EQ(inst.profit(0, 1), 3);
  EXPECT_EQ(inst.profit(0, 2), 7);
  EXPECT_EQ(inst.profit(1, 2), 2);
}

TEST(QkpIo, RoundTripsThroughWriteRead) {
  QkpGeneratorParams params;
  params.n = 25;
  const QkpInstance original = generate_qkp(params, 77);
  std::stringstream buffer;
  write_qkp(buffer, original);
  const QkpInstance parsed = read_qkp(buffer);
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.n, original.n);
  EXPECT_EQ(parsed.capacity, original.capacity);
  EXPECT_EQ(parsed.weights, original.weights);
  EXPECT_EQ(parsed.profits, original.profits);
}

TEST(QkpIo, HandlesCrLfNameLine) {
  std::string text = kSample;
  text.replace(text.find('\n'), 1, "\r\n");
  std::istringstream in(text);
  EXPECT_EQ(read_qkp(in).name, "sample_3");
}

TEST(QkpIo, ThrowsOnTruncatedInput) {
  std::istringstream in("name\n3\n10 6\n");  // missing data
  EXPECT_THROW(read_qkp(in), std::runtime_error);
}

TEST(QkpIo, ThrowsOnBadConstraintMarker) {
  std::istringstream in(
      "name\n1\n5\n\n1\n10\n3\n");  // marker 1 (equality) unsupported
  EXPECT_THROW(read_qkp(in), std::runtime_error);
}

TEST(QkpIo, ThrowsOnNonsenseN) {
  std::istringstream in("name\n-2\n");
  EXPECT_THROW(read_qkp(in), std::runtime_error);
}

TEST(QkpIo, MissingFileThrows) {
  EXPECT_THROW(read_qkp_file("/nonexistent/file.txt"), std::runtime_error);
}

TEST(QkpIo, FileRoundTrip) {
  QkpGeneratorParams params;
  params.n = 10;
  const QkpInstance original = generate_qkp(params, 3);
  const std::string path = ::testing::TempDir() + "qkp_io_test.txt";
  write_qkp_file(path, original);
  const QkpInstance parsed = read_qkp_file(path);
  EXPECT_EQ(parsed.profits, original.profits);
  std::remove(path.c_str());
}

TEST(QkpIo, SingleItemInstance) {
  std::istringstream in("one\n1\n42\n\n0\n5\n3\n");
  const QkpInstance inst = read_qkp(in);
  EXPECT_EQ(inst.n, 1u);
  EXPECT_EQ(inst.profit(0, 0), 42);
  EXPECT_EQ(inst.capacity, 5);
}

// Quirks of the published CNAM archive files the reader must tolerate.

TEST(QkpIo, SkipsLeadingBlankLines) {
  std::istringstream in(std::string("\n  \t\n\r\n") + kSample);
  EXPECT_EQ(read_qkp(in).name, "sample_3");
}

TEST(QkpIo, TrimsPaddedNameLine) {
  std::string text = kSample;
  text.replace(0, 8, " \tsample_3 \t");
  std::istringstream in(text);
  EXPECT_EQ(read_qkp(in).name, "sample_3");
}

TEST(QkpIo, IgnoresTrailingContentAfterWeights) {
  std::istringstream in(std::string(kSample) +
                        "\ncomment trailing in the archive file\n");
  const QkpInstance inst = read_qkp(in);
  EXPECT_EQ(inst.n, 3u);
  EXPECT_EQ(inst.weights, (std::vector<long long>{4, 7, 2}));
}

TEST(QkpIo, LoadsDirectoryInNameOrder) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "qkp_io_test_suite";
  fs::remove_all(dir);
  fs::create_directories(dir);
  QkpGeneratorParams params;
  params.n = 8;
  // Written out of name order; the loader must sort by file name.
  const QkpInstance second = generate_qkp(params, 11);
  const QkpInstance first = generate_qkp(params, 12);
  write_qkp_file((dir / "b_instance.txt").string(), second);
  write_qkp_file((dir / "a_instance.txt").string(), first);
  const std::vector<QkpInstance> suite =
      load_qkp_directory(dir.string());
  ASSERT_EQ(suite.size(), 2u);
  EXPECT_EQ(suite[0].profits, first.profits);
  EXPECT_EQ(suite[1].profits, second.profits);
  fs::remove_all(dir);
}

TEST(QkpIo, DirectoryLoadFailsLoudlyWithThePathInTheError) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "qkp_io_test_bad_suite";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream bad(dir / "broken.txt");
    bad << "broken\n3\n1 2\n";  // truncated profits
  }
  try {
    load_qkp_directory(dir.string());
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("broken.txt"), std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST(QkpIo, LoadDirectoryRejectsNonDirectories) {
  EXPECT_THROW(load_qkp_directory("/nonexistent/qkp/dir"),
               std::runtime_error);
}

TEST(QkpIo, TruncatedFileErrorCarriesThePath) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::path(::testing::TempDir()) / "qkp_io_truncated.txt";
  {
    std::ofstream out(path);
    out << "truncated\n3\n1 2\n";  // profits cut short
  }
  try {
    read_qkp_file(path.string());
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("missing"), std::string::npos) << what;
    EXPECT_NE(what.find("qkp_io_truncated.txt"), std::string::npos) << what;
  }
  fs::remove(path);
}

TEST(QkpIo, NonNumericCapacityErrorCarriesThePath) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::path(::testing::TempDir()) / "qkp_io_bad_capacity.txt";
  {
    std::ofstream out(path);
    // Valid up to the constraint marker, then a word where the numeric
    // capacity belongs.
    out << "bad_capacity\n2\n10 20\n5\n\n0\nbanana\n4 7\n";
  }
  try {
    read_qkp_file(path.string());
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("capacity"), std::string::npos) << what;
    EXPECT_NE(what.find("qkp_io_bad_capacity.txt"), std::string::npos)
        << what;
  }
  fs::remove(path);
}

TEST(QkpIo, EmptyDirectoryFailsLoudlyWithThePath) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "qkp_io_empty_suite";
  fs::remove_all(dir);
  fs::create_directories(dir);
  try {
    load_qkp_directory(dir.string());
    FAIL() << "expected an empty-suite error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no instance files"), std::string::npos) << what;
    EXPECT_NE(what.find("qkp_io_empty_suite"), std::string::npos) << what;
  }
  fs::remove_all(dir);
}

TEST(QkpIo, InvalidInstanceErrorCarriesThePath) {
  // Well-formed files whose instance fails QkpInstance::validate(): the
  // error keeps its type and names the file, so a directory load says
  // which instance is bad.
  namespace fs = std::filesystem;
  const struct {
    const char* file;
    const char* text;
    const char* reason;
  } cases[] = {
      {"qkp_io_zero_weight.txt", "zero_weight\n2\n10 20\n5\n\n0\n9\n4 0\n",
       "weight < 1"},
      {"qkp_io_negative_capacity.txt",
       "negative_capacity\n2\n10 20\n5\n\n0\n-3\n4 7\n",
       "negative capacity"},
  };
  for (const auto& c : cases) {
    const fs::path path = fs::path(::testing::TempDir()) / c.file;
    {
      std::ofstream out(path);
      out << c.text;
    }
    try {
      read_qkp_file(path.string());
      ADD_FAILURE() << "expected a validation error for " << c.file;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.reason), std::string::npos) << what;
      EXPECT_NE(what.find(c.file), std::string::npos) << what;
    }
    fs::remove(path);
  }
}

}  // namespace
}  // namespace hycim::cop
