#include "cim/crossbar/bit_slice.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace hycim::cim {
namespace {

qubo::QuboMatrix integer_qubo(std::size_t n, util::Rng& rng, long long max) {
  qubo::QuboMatrix q(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      q.set(i, j, static_cast<double>(rng.uniform_int(-max, max)));
    }
  }
  return q;
}

TEST(Quantize, IntegerMatrixIsExact) {
  util::Rng rng(1);
  const auto q = integer_qubo(10, rng, 100);
  const auto quant = quantize(q, 7);
  EXPECT_EQ(quant.scale, 1.0);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = i; j < 10; ++j) {
      EXPECT_EQ(static_cast<double>(quant.at(i, j)), q.at(i, j));
    }
  }
}

TEST(Quantize, MagnitudeBitsMatchPaper) {
  qubo::QuboMatrix q(2);
  q.set(0, 1, -100.0);  // HyCiM: (Qij)MAX = 100 -> 7 bits
  EXPECT_EQ(quantize(q, 30).magnitude_bits, 7);
  qubo::QuboMatrix q2(2);
  q2.set(0, 0, 4.0e4);  // D-QUBO small end -> 16 bits
  EXPECT_EQ(quantize(q2, 30).magnitude_bits, 16);
}

TEST(Quantize, FractionalMatrixScales) {
  qubo::QuboMatrix q(2);
  q.set(0, 0, 0.5);
  q.set(0, 1, -1.0);
  const auto quant = quantize(q, 8);
  EXPECT_NE(quant.scale, 1.0);
  EXPECT_NEAR(static_cast<double>(quant.at(0, 0)) * quant.scale, 0.5,
              quant.scale);
  EXPECT_NEAR(static_cast<double>(quant.at(0, 1)) * quant.scale, -1.0,
              quant.scale);
}

TEST(Quantize, EnergyMatchesDequantizedMatrix) {
  util::Rng rng(2);
  const auto q = integer_qubo(12, rng, 500).freeze();
  const auto quant = quantize(q->matrix(), 8);  // lossy: 500 > 2^8 - 1
  ASSERT_FALSE(quant.exact);
  const auto deq = quant.dequantize(q);
  EXPECT_NE(deq, q);
  for (int trial = 0; trial < 30; ++trial) {
    const auto x = rng.random_bits(12);
    EXPECT_NEAR(quant.energy(x), deq->energy(x), 1e-9);
  }
}

TEST(Quantize, ExactQuantizationSharesTheSourceMatrix) {
  util::Rng rng(4);
  const auto q = integer_qubo(12, rng, 100).freeze();
  const auto quant = quantize(q->matrix(), 7);
  ASSERT_TRUE(quant.exact);
  EXPECT_EQ(quant.dequantize(q), q);  // no copy: the source itself
  // -0.0 dequantizes to +0.0, so it is not bit-exact and gets a fresh
  // matrix.
  qubo::QuboMatrix signed_zero(2);
  signed_zero.set(0, 1, -0.0);
  const auto sz = signed_zero.freeze();
  const auto sz_quant = quantize(sz->matrix(), 3);
  EXPECT_FALSE(sz_quant.exact);
  EXPECT_NE(sz_quant.dequantize(sz), sz);
}

/// The three things program(q, bits) promises against quantize(): the
/// source itself back exactly when the quantization is exact, otherwise a
/// matrix bit-identical to quantize(...).dequantize(q), and quantize's
/// magnitude bits either way.
void expect_programs_like_quantize(const qubo::FrozenQuboPtr& q, int bits) {
  const QuantizedQubo quant = quantize(*q, bits);
  const ProgrammedQubo programmed = program(q, bits);
  EXPECT_EQ(programmed.magnitude_bits, quant.magnitude_bits);
  EXPECT_EQ(programmed.matrix == q, quant.exact);
  if (quant.exact) return;
  const auto bits_of = [](const qubo::FrozenQubo& m) {
    std::vector<std::uint64_t> out;
    for (const double v : m.matrix().packed()) {
      out.push_back(std::bit_cast<std::uint64_t>(v));
    }
    out.push_back(std::bit_cast<std::uint64_t>(m.matrix().offset()));
    return out;
  };
  EXPECT_EQ(bits_of(*programmed.matrix), bits_of(*quant.dequantize(q)));
}

TEST(Program, MatchesQuantizeThenDequantize) {
  // program() decides from the record the freeze pass made
  // (FrozenQubo::scan()) and takes its fast path only for an integral
  // matrix within the budget without −0.0, while quantize() of the builder
  // scans it afresh.  On each side of the integral test, quantize() of the
  // frozen matrix reads the same record as the builder's scan, and
  // program() agrees with quantize-then-dequantize.
  const auto matrix = [](std::initializer_list<double> diagonal) {
    qubo::QuboMatrix q(diagonal.size());
    std::size_t i = 0;
    for (const double v : diagonal) {
      q.set(i, i, v);
      ++i;
    }
    q.set_offset(1.5);
    return q;
  };
  util::Rng rng(9);
  const struct {
    const char* what;
    qubo::QuboMatrix q;
    int bits;
    bool integral;  ///< quantize() keeps the values (scale 1)
    bool exact;
    bool integers;  ///< every coefficient a finite integer, at any range
  } cases[] = {
      {"integers", integer_qubo(9, rng, 100), 7, true, true, true},
      {"lossy integers", integer_qubo(12, rng, 500), 8, false, false, true},
      {"range edge", matrix({7.0, -7.0, 0.0}), 3, true, true, true},
      {"one past the range", matrix({8.0, -7.0}), 3, false, false, true},
      {"negative zero", matrix({-0.0, 3.0}), 3, true, false, true},
      {"fraction", matrix({2.5, 1.1}), 4, false, false, false},
      {"exact fraction", matrix({1.5, -0.5}), 2, false, true, false},
      {"beyond 2^52", matrix({0x1p52 + 2.0, -0x1p53 + 2.0, 1.0}), 53, true,
       true, true},
      {"fraction below 2^52", matrix({0x1p51 + 0.5, 1.0}), 53, false, false,
       false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    const QuantizedQubo full = quantize(c.q, c.bits);
    const qubo::FrozenQuboPtr frozen = c.q.freeze();
    EXPECT_EQ(frozen->scan().integral, c.integers);
    EXPECT_EQ(full.scale == 1.0, c.integral);
    EXPECT_EQ(full.exact, c.exact);
    const QuantizedQubo from_record = quantize(*frozen, c.bits);
    EXPECT_EQ(from_record.values, full.values);
    EXPECT_EQ(from_record.scale, full.scale);
    EXPECT_EQ(from_record.magnitude_bits, full.magnitude_bits);
    EXPECT_EQ(from_record.exact, full.exact);
    expect_programs_like_quantize(frozen, c.bits);
  }
}

TEST(Quantize, StaysWithinItsBitBudgetBeyond53Bits) {
  // From 54 bits up the double range 2^b − 1 rounds up to 2^b; the largest
  // coefficient must still get a code of at most 2^b − 1, on the scaled
  // path (a fractional matrix) and at the integral path's edge (2^b itself
  // does not fit b bits).  program() reports the same magnitude bits.
  qubo::QuboMatrix fractional(3);
  fractional.set(0, 0, 0.5);
  fractional.set(1, 1, -1.0);
  fractional.set(2, 2, 0.25);
  for (const int bits : {54, 62}) {
    SCOPED_TRACE("max_bits=" + std::to_string(bits));
    const long long max_code = (1LL << bits) - 1;
    qubo::QuboMatrix edge(2);
    edge.set(0, 0, std::ldexp(1.0, bits));
    edge.set(1, 1, -3.0);
    for (const qubo::QuboMatrix* q : {&fractional, &edge}) {
      const QuantizedQubo quant = quantize(*q, bits);
      EXPECT_LE(quant.magnitude_bits, bits);
      for (const long long v : quant.values) {
        EXPECT_LE(std::llabs(v), max_code) << v;
      }
      expect_programs_like_quantize(q->freeze(), bits);
    }
  }
}

TEST(Quantize, PowerOfTwoMaximumStaysExact) {
  // max |Q| = 4 = 2^2 needs 3 bits; sized at ⌈log2 4⌉ = 2 it would take
  // the lossy scaled path (1 -> 1.33, 3 -> 2.67).
  qubo::QuboMatrix q(3);
  q.set(0, 0, 1.0);
  q.set(0, 2, -3.0);
  q.set(1, 2, 4.0);
  q.set(2, 2, 2.0);
  ASSERT_EQ(q.quantization_bits(), 3);
  const auto quant = quantize(q, q.quantization_bits());
  EXPECT_EQ(quant.scale, 1.0);
  EXPECT_TRUE(quant.exact);
  EXPECT_EQ(quant.at(0, 0), 1);
  EXPECT_EQ(quant.at(0, 2), -3);
  EXPECT_EQ(quant.at(1, 2), 4);
  EXPECT_EQ(quant.magnitude_bits, 3);
}

TEST(Quantize, IntegerEnergyIsExact) {
  util::Rng rng(3);
  const auto q = integer_qubo(15, rng, 100);
  const auto quant = quantize(q, 7);
  for (int trial = 0; trial < 30; ++trial) {
    const auto x = rng.random_bits(15);
    EXPECT_DOUBLE_EQ(quant.energy(x), q.energy(x));
  }
}

TEST(Quantize, OffsetCarriedThrough) {
  qubo::QuboMatrix q(2);
  q.set_offset(42.0);
  const auto quant = quantize(q, 4);
  EXPECT_DOUBLE_EQ(quant.offset, 42.0);
  EXPECT_DOUBLE_EQ(quant.energy(std::vector<std::uint8_t>{0, 0}), 42.0);
}

TEST(Quantize, RejectsBadBits) {
  qubo::QuboMatrix q(2);
  EXPECT_THROW(quantize(q, 0), std::invalid_argument);
  EXPECT_THROW(quantize(q, 63), std::invalid_argument);
  // program() rejects them too, even for a matrix its fast path would
  // return unread.
  EXPECT_THROW(program(q.freeze(), 0), std::invalid_argument);
  EXPECT_THROW(program(q.freeze(), 63), std::invalid_argument);
}

TEST(Quantize, QuantizationErrorBounded) {
  // Scaled quantization error per coefficient is at most scale/2.
  util::Rng rng(4);
  qubo::QuboMatrix q(8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i; j < 8; ++j) q.set(i, j, rng.uniform(-1, 1));
  }
  const auto quant = quantize(q, 6);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i; j < 8; ++j) {
      const double recon = static_cast<double>(quant.at(i, j)) * quant.scale;
      EXPECT_LE(std::abs(recon - q.at(i, j)), quant.scale / 2 + 1e-12);
    }
  }
}

TEST(BitPlane, ReconstructsMagnitudesAndSigns) {
  util::Rng rng(5);
  const auto q = integer_qubo(9, rng, 127);
  const auto quant = quantize(q, 7);
  // Rebuild every coefficient from its planes.
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = i; j < 9; ++j) {
      long long pos = 0, neg = 0;
      for (int b = 0; b < quant.magnitude_bits; ++b) {
        const auto plane_p = bit_plane(quant, b, +1);
        const auto plane_n = bit_plane(quant, b, -1);
        pos += static_cast<long long>(plane_p[i * 9 + j]) << b;
        neg += static_cast<long long>(plane_n[i * 9 + j]) << b;
      }
      EXPECT_EQ(pos - neg, quant.at(i, j)) << i << "," << j;
    }
  }
}

TEST(BitPlane, LowerTriangleIsZero) {
  util::Rng rng(6);
  const auto quant = quantize(integer_qubo(6, rng, 50), 6);
  for (int b = 0; b < quant.magnitude_bits; ++b) {
    const auto plane = bit_plane(quant, b, +1);
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        EXPECT_EQ(plane[i * 6 + j], 0) << i << "," << j;
      }
    }
  }
}

TEST(BitPlane, RejectsBadArguments) {
  qubo::QuboMatrix q(2);
  q.set(0, 0, 3.0);
  const auto quant = quantize(q, 4);
  EXPECT_THROW(bit_plane(quant, -1, 1), std::invalid_argument);
  EXPECT_THROW(bit_plane(quant, quant.magnitude_bits, 1),
               std::invalid_argument);
  EXPECT_THROW(bit_plane(quant, 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace hycim::cim
