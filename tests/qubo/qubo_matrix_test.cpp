#include "qubo/qubo_matrix.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace hycim::qubo {
namespace {

TEST(QuboMatrix, DefaultIsEmpty) {
  QuboMatrix q;
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.max_abs_coefficient(), 0.0);
}

TEST(QuboMatrix, ZeroInitialized) {
  QuboMatrix q(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i; j < 4; ++j) EXPECT_EQ(q.at(i, j), 0.0);
  }
}

TEST(QuboMatrix, RefusesASizeWhoseTriangleOverflows) {
  // n(n+1)/2 wraps for n = SIZE_MAX; the wrapped store would be empty and
  // the first write would land out of bounds.
  EXPECT_THROW(QuboMatrix(std::numeric_limits<std::size_t>::max()),
               std::length_error);
}

TEST(QuboMatrix, RowViewWritesThePackedRow) {
  QuboMatrix q(3);
  const std::span<double> row1 = q.row(1);
  ASSERT_EQ(row1.size(), 2u);
  row1[0] = 4.0;  // (1, 1)
  row1[1] = 6.0;  // (1, 2)
  EXPECT_EQ(q.at(1, 1), 4.0);
  EXPECT_EQ(q.at(2, 1), 6.0);
  EXPECT_EQ(q.row(2).size(), 1u);
  EXPECT_THROW(q.row(3), std::out_of_range);
}

TEST(QuboMatrix, SetGetSymmetricAccess) {
  QuboMatrix q(3);
  q.set(0, 2, 5.0);
  EXPECT_EQ(q.at(0, 2), 5.0);
  EXPECT_EQ(q.at(2, 0), 5.0);  // transparent lower-triangle read
  q.set(2, 0, 7.0);            // transparent lower-triangle write
  EXPECT_EQ(q.at(0, 2), 7.0);
}

TEST(QuboMatrix, AddAccumulates) {
  QuboMatrix q(2);
  q.add(0, 1, 2.0);
  q.add(1, 0, 3.0);
  EXPECT_EQ(q.at(0, 1), 5.0);
}

TEST(QuboMatrix, OutOfRangeThrows) {
  QuboMatrix q(2);
  EXPECT_THROW(q.at(0, 2), std::out_of_range);
  EXPECT_THROW(q.set(2, 2, 1.0), std::out_of_range);
}

TEST(QuboMatrix, EnergyOfEmptySelection) {
  QuboMatrix q(3);
  q.set(0, 0, 4.0);
  q.set_offset(1.5);
  const BitVector x{0, 0, 0};
  EXPECT_DOUBLE_EQ(q.energy(x), 1.5);  // offset only
}

TEST(QuboMatrix, EnergyHandComputed) {
  // E = 2*x0 - 3*x1 + 4*x0x1
  QuboMatrix q(2);
  q.set(0, 0, 2.0);
  q.set(1, 1, -3.0);
  q.set(0, 1, 4.0);
  EXPECT_DOUBLE_EQ(q.energy(BitVector{0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(q.energy(BitVector{1, 0}), 2.0);
  EXPECT_DOUBLE_EQ(q.energy(BitVector{0, 1}), -3.0);
  EXPECT_DOUBLE_EQ(q.energy(BitVector{1, 1}), 3.0);
}

TEST(QuboMatrix, OffsetShiftsAllEnergies) {
  QuboMatrix q(2);
  q.set(0, 1, 1.0);
  q.add_offset(10.0);
  EXPECT_DOUBLE_EQ(q.energy(BitVector{1, 1}), 11.0);
  EXPECT_DOUBLE_EQ(q.energy(BitVector{0, 0}), 10.0);
}

TEST(QuboMatrix, DeltaEnergyMatchesRecompute) {
  util::Rng rng(99);
  QuboMatrix q(12);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = i; j < 12; ++j) {
      q.set(i, j, rng.uniform(-5, 5));
    }
  }
  for (int trial = 0; trial < 50; ++trial) {
    BitVector x = rng.random_bits(12);
    const std::size_t k = rng.index(12);
    const double e0 = q.energy(x);
    const double delta = q.delta_energy(x, k);
    x[k] ^= 1;
    EXPECT_NEAR(q.energy(x), e0 + delta, 1e-9);
  }
}

TEST(QuboMatrix, MaxAbsCoefficient) {
  QuboMatrix q(3);
  q.set(0, 1, -42.0);
  q.set(1, 2, 17.0);
  EXPECT_DOUBLE_EQ(q.max_abs_coefficient(), 42.0);
}

TEST(QuboMatrix, FreezeMeasuresTheFinishedMatrix) {
  QuboMatrix q(3);
  EXPECT_EQ(q.freeze()->nonzeros(), 0u);
  q.set(0, 0, 1.0);
  q.set(1, 2, -2.0);
  q.add(2, 2, 0.5);
  q.add(2, 2, -0.5);  // adds back to zero: structurally zero again
  q.set_offset(3.0);
  const FrozenQuboPtr frozen = q.freeze();
  EXPECT_EQ(frozen->nonzeros(), 2u);
  EXPECT_DOUBLE_EQ(frozen->max_abs_coefficient(), 2.0);
  EXPECT_EQ(frozen->quantization_bits(), q.quantization_bits());
  EXPECT_EQ(frozen->energy(BitVector{1, 1, 1}), q.energy(BitVector{1, 1, 1}));
  // A later write to the builder never reaches the frozen copy.
  q.set(0, 1, 9.0);
  EXPECT_EQ(frozen->matrix().at(0, 1), 0.0);
  // Freezing an rvalue moves the storage and leaves an empty builder.
  const FrozenQuboPtr moved = std::move(q).freeze();
  EXPECT_EQ(moved->matrix().at(0, 1), 9.0);
  EXPECT_EQ(q.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(q.packed().empty());
}

TEST(QuboMatrix, QuantizationBitsMatchesPaperExamples) {
  // HyCiM: (Qij)MAX = 100 -> 7 bits (paper Sec. 4.2).
  QuboMatrix q(2);
  q.set(0, 1, 100.0);
  EXPECT_EQ(q.quantization_bits(), 7);
  // D-QUBO: (Qij)MAX = 2.6e7 -> 25 bits.
  q.set(0, 0, 2.6e7);
  EXPECT_EQ(q.quantization_bits(), 25);
  // (Qij)MAX = 4.0e4 -> 16 bits.
  QuboMatrix q2(2);
  q2.set(0, 0, 4.0e4);
  EXPECT_EQ(q2.quantization_bits(), 16);
}

TEST(QuboMatrix, QuantizationBitsCoverPowersOfTwo) {
  // b bits hold magnitudes up to 2^b - 1, so 2^t itself needs t + 1 bits.
  QuboMatrix q(2);
  for (const auto& [max_abs, bits] :
       {std::pair{3.0, 2}, {4.0, 3}, {3.5, 3}, {7.0, 3}, {8.0, 4},
        {127.0, 7}, {128.0, 8}}) {
    q.set(0, 1, max_abs);
    EXPECT_EQ(q.quantization_bits(), bits) << "max |Q| = " << max_abs;
    EXPECT_EQ(magnitude_bits(max_abs), bits);
  }
}

TEST(QuboMatrix, QuantizationBitsMinimumIsOne) {
  QuboMatrix q(2);
  EXPECT_EQ(q.quantization_bits(), 1);
  q.set(0, 0, 1.0);
  EXPECT_EQ(q.quantization_bits(), 1);
}

TEST(QuboMatrix, PackedSizeIsTriangular) {
  QuboMatrix q(5);
  EXPECT_EQ(q.packed().size(), 15u);
}

}  // namespace
}  // namespace hycim::qubo
