// Unit tests for src/util: matrix container and views, RNG, tables, CLI,
// and the strict environment-integer parser.

#include <gtest/gtest.h>

#include <sstream>

#include "util/aligned.hpp"
#include "tests/helpers.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace srumma {
namespace {

TEST(Matrix, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.ld(), 3);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 3; ++i) EXPECT_EQ(m(i, j), 0.0);
}

TEST(Matrix, ColumnMajorLayout) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(1, 0) = 2;
  m(0, 1) = 3;
  EXPECT_EQ(m.data()[0], 1.0);
  EXPECT_EQ(m.data()[1], 2.0);
  EXPECT_EQ(m.data()[2], 3.0);
}

TEST(Matrix, AlignedStorage) {
  Matrix m(5, 7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % kCacheLineBytes, 0u);
}

TEST(Matrix, EmptyIsLegal) {
  Matrix m(0, 0);
  EXPECT_TRUE(m.empty());
  Matrix r(0, 5);
  EXPECT_EQ(r.size(), 0);
}

TEST(Matrix, NegativeDimsThrow) {
  EXPECT_THROW(Matrix(-1, 2), Error);
  EXPECT_THROW(Matrix(2, -1), Error);
}

TEST(MatrixView, BlockAddressesSubmatrix) {
  Matrix m(4, 4);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 4; ++i) m(i, j) = static_cast<double>(10 * i + j);
  MatrixView b = m.block(1, 2, 2, 2);
  EXPECT_EQ(b(0, 0), m(1, 2));
  EXPECT_EQ(b(1, 1), m(2, 3));
  EXPECT_EQ(b.ld(), 4);
  b(0, 0) = -5.0;
  EXPECT_EQ(m(1, 2), -5.0);
}

TEST(MatrixView, OutOfRangeBlockThrows) {
  Matrix m(4, 4);
  EXPECT_THROW((void)m.block(2, 2, 3, 1), Error);
  EXPECT_THROW((void)m.block(0, 0, 5, 1), Error);
  EXPECT_THROW((void)m.block(-1, 0, 1, 1), Error);
}

TEST(MatrixView, LdSmallerThanRowsThrows) {
  double buf[4] = {};
  EXPECT_THROW(MatrixView(buf, 4, 1, 2), Error);
}

TEST(MatrixOps, CopyRespectsStrides) {
  Matrix src(4, 4);
  fill_random(src.view(), 1);
  Matrix dst(2, 2);
  copy(src.block(1, 1, 2, 2), dst.view());
  EXPECT_EQ(dst(0, 0), src(1, 1));
  EXPECT_EQ(dst(1, 1), src(2, 2));
}

TEST(MatrixOps, CopyDimMismatchThrows) {
  Matrix a(2, 3), b(3, 2);
  EXPECT_THROW(copy(a.view(), b.view()), Error);
}

TEST(MatrixOps, MaxAbsDiff) {
  Matrix a(2, 2), b(2, 2);
  a(1, 0) = 3.0;
  b(1, 0) = 1.0;
  EXPECT_DOUBLE_EQ(max_abs_diff(a.view(), b.view()), 2.0);
}

TEST(MatrixOps, FrobeniusNorm) {
  Matrix a(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(frobenius_norm(a.view()), 5.0);
}

TEST(MatrixOps, TransposeRoundTrip) {
  Matrix a(3, 5);
  fill_random(a.view(), 7);
  Matrix at(5, 3);
  transpose(a.view(), at.view());
  Matrix back(3, 5);
  transpose(at.view(), back.view());
  EXPECT_EQ(max_abs_diff(a.view(), back.view()), 0.0);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, FillCoordsMatchesOffsets) {
  // A sub-block filled with offsets equals the same region of a full fill.
  Matrix full(8, 10);
  fill_coords(full.view(), 0, 0);
  Matrix sub(3, 4);
  fill_coords(sub.view(), 2, 5);
  EXPECT_EQ(max_abs_diff(sub.view(), full.block(2, 5, 3, 4)), 0.0);
}

TEST(Table, AlignsAndCounts) {
  TableWriter t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.row_count(), 2u);
  std::ostringstream os;
  t.print(os, "title");
  const std::string s = os.str();
  EXPECT_NE(s.find("== title =="), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
}

TEST(Table, CellCountMismatchThrows) {
  TableWriter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, CsvOutput) {
  TableWriter t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, NumFormat) {
  EXPECT_EQ(TableWriter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TableWriter::num(static_cast<long long>(42)), "42");
}

TEST(Cli, ParsesValuesAndDefaults) {
  CliParser p;
  p.add_flag("n", "100", "size");
  p.add_flag("verbose", "false", "switch");
  const char* argv[] = {"prog", "--n", "250", "--verbose"};
  ASSERT_TRUE(p.parse(4, argv));
  EXPECT_EQ(p.get_int("n"), 250);
  EXPECT_TRUE(p.get_bool("verbose"));
}

TEST(Cli, EqualsForm) {
  CliParser p;
  p.add_flag("rate", "1.5", "a rate");
  const char* argv[] = {"prog", "--rate=2.25"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 2.25);
}

TEST(Cli, UnknownFlagThrows) {
  CliParser p;
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(p.parse(3, argv), Error);
}

TEST(Cli, BadIntThrows) {
  CliParser p;
  p.add_flag("n", "1", "");
  const char* argv[] = {"prog", "--n", "12x"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_THROW((void)p.get_int("n"), std::exception);
}

TEST(Units, Literals) {
  EXPECT_DOUBLE_EQ(5_us, 5e-6);
  EXPECT_DOUBLE_EQ(2.5_GBs, 2.5e9);
  EXPECT_DOUBLE_EQ(16_KiB, 16384.0);
  EXPECT_DOUBLE_EQ(gemm_flops(2, 3, 4), 48.0);
}

TEST(Error, MessageCarriesContext) {
  try {
    SRUMMA_REQUIRE(false, "something bad");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("something bad"), std::string::npos);
  }
}

TEST(EnvNumber, ParsesRealsInsideTheRange) {
  for (const auto& [v, want] :
       {std::pair{"0.002", 0.002}, {"5e6", 5e6}, {"20", 20.0}, {".25", 0.25}}) {
    testing::ScopedEnv e("SRUMMA_TEST_KNOB", v);
    EXPECT_EQ(env_number("SRUMMA_TEST_KNOB", 0.0, 1e7), want) << v;
  }
  for (const char* v : {"abc", "3abc", " 1", "+1", "nan", "inf", "-1",
                        "1e400", "2e7"}) {
    testing::ScopedEnv e("SRUMMA_TEST_KNOB", v);
    try {
      (void)env_number("SRUMMA_TEST_KNOB", 0.0, 1e7);
      ADD_FAILURE() << "accepted '" << v << "'";
    } catch (const Error& err) {
      EXPECT_NE(std::string(err.what()).find(
                    "SRUMMA_TEST_KNOB must be a number in [0, 1e+07]"),
                std::string::npos)
          << err.what();
    }
  }
}

TEST(EnvNumber, UnsignedRejectsNegatives) {
  testing::ScopedEnv e("SRUMMA_TEST_KNOB", "-1");
  EXPECT_THROW((void)env_number<std::uint64_t>("SRUMMA_TEST_KNOB", 0, 10),
               Error);
}

TEST(EnvFlag, OnlyZeroOrOne) {
  {
    testing::ScopedEnv e("SRUMMA_TEST_KNOB", nullptr);
    EXPECT_FALSE(env_flag("SRUMMA_TEST_KNOB"));
    EXPECT_TRUE(env_flag("SRUMMA_TEST_KNOB", /*unset=*/true));
  }
  for (const char* off : {"", "0"}) {
    testing::ScopedEnv e("SRUMMA_TEST_KNOB", off);
    EXPECT_FALSE(env_flag("SRUMMA_TEST_KNOB", /*unset=*/true)) << off;
  }
  {
    testing::ScopedEnv e("SRUMMA_TEST_KNOB", "1");
    EXPECT_TRUE(env_flag("SRUMMA_TEST_KNOB"));
  }
  for (const char* bad : {"false", "true", "01", "on", "2", " 1"})
    testing::expect_env_rejected("SRUMMA_TEST_KNOB", bad,
                                 [] { (void)env_flag("SRUMMA_TEST_KNOB"); });
}

TEST(EnvInt, UnsetOrEmptyIsAbsent) {
  {
    testing::ScopedEnv e("SRUMMA_TEST_KNOB", nullptr);
    EXPECT_FALSE(env_int("SRUMMA_TEST_KNOB", 1, 8).has_value());
  }
  testing::ScopedEnv e("SRUMMA_TEST_KNOB", "");
  EXPECT_FALSE(env_int("SRUMMA_TEST_KNOB", 1, 8).has_value());
}

TEST(EnvInt, AcceptsIntegersInsideTheRange) {
  for (const char* v : {"1", "5", "8"}) {
    testing::ScopedEnv e("SRUMMA_TEST_KNOB", v);
    EXPECT_EQ(env_int("SRUMMA_TEST_KNOB", 1, 8), std::stoll(v)) << v;
  }
  testing::ScopedEnv e("SRUMMA_TEST_KNOB", "-3");
  EXPECT_EQ(env_int("SRUMMA_TEST_KNOB", -5, 0), -3);
}

TEST(EnvInt, RejectsMalformedOrOutOfRangeNamingVariableAndRange) {
  for (const char* v : {"0", "9", "-1", "abc", "4x", " 4", "+4", "4.0",
                        "99999999999999999999999"}) {
    testing::ScopedEnv e("SRUMMA_TEST_KNOB", v);
    try {
      (void)env_int("SRUMMA_TEST_KNOB", 1, 8);
      ADD_FAILURE() << "accepted '" << v << "'";
    } catch (const Error& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find("SRUMMA_TEST_KNOB must be an integer in [1, 8]"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(std::string("got '") + v + "'"), std::string::npos)
          << what;
    }
  }
}

}  // namespace
}  // namespace srumma
