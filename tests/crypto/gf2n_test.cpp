#include "src/crypto/gf2n.hpp"

#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

#include "src/common/rng.hpp"

namespace qkd::crypto {
namespace {

TEST(Clmul, SmallKnownProducts) {
  // (x+1)(x+1) = x^2+1 over GF(2).
  const auto a = qkd::BitVector::from_string("11");  // 1 + x
  const auto sq = clmul(a, a);
  EXPECT_EQ(sq.to_string(), "101");
  // (x^2+x+1)(x+1) = x^3 + 2x^2 + 2x + 1 = x^3+1 over GF(2).
  const auto b = qkd::BitVector::from_string("111");
  const auto p = clmul(b, a);
  EXPECT_EQ(p.to_string(), "1001");
}

TEST(Clmul, MultiplicationByOneIsIdentity) {
  QKD_SEEDED_RNG(rng, 5);
  const auto a = rng.next_bits(200);
  const auto one = qkd::BitVector::from_string("1");
  auto p = clmul(a, one);
  p.resize(a.size());
  EXPECT_EQ(p, a);
}

TEST(Clmul, Commutes) {
  QKD_SEEDED_RNG(rng, 6);
  const auto a = rng.next_bits(130);
  const auto b = rng.next_bits(77);
  EXPECT_EQ(clmul(a, b), clmul(b, a));
}

TEST(ReduceMod, KnownSmallReduction) {
  // x^3 mod (x^2 + x + 1) = x*(x^2) = x*(x+1) = x^2+x = (x+1)+x = 1.
  qkd::BitVector v(4);
  v.set(3, true);  // x^3
  reduce_mod(v, SparsePoly{{2, 1, 0}});
  EXPECT_EQ(v.to_string(), "10");  // wait: x^3 mod (x^2+x+1)
}

TEST(IsIrreducible, SmallPolynomials) {
  EXPECT_TRUE(is_irreducible(SparsePoly{{1, 0}}));       // x + 1
  EXPECT_TRUE(is_irreducible(SparsePoly{{2, 1, 0}}));    // x^2+x+1
  EXPECT_TRUE(is_irreducible(SparsePoly{{3, 1, 0}}));    // x^3+x+1
  EXPECT_TRUE(is_irreducible(SparsePoly{{4, 1, 0}}));    // x^4+x+1
  EXPECT_FALSE(is_irreducible(SparsePoly{{2, 0}}));      // x^2+1 = (x+1)^2
  EXPECT_FALSE(is_irreducible(SparsePoly{{4, 2, 0}}));   // (x^2+x+1)^2
  EXPECT_FALSE(is_irreducible(SparsePoly{{3, 1}}));      // no constant term
  EXPECT_TRUE(is_irreducible(SparsePoly{{8, 4, 3, 1, 0}}));  // AES field poly
}

TEST(IrreduciblePoly, ServesAllStackDegrees) {
  // Privacy amplification rounds n up to a multiple of 32 (paper, Sec. 5)
  // and then up the PA width ladder; these are the degrees the QKD stack
  // and the tests exercise, the whole ladder included, and together they
  // are the whole built-in table. The run-time path trusts the table, so
  // this is where each entry is proven irreducible, once.
  for (unsigned n : {32u, 64u, 96u, 128u, 160u, 192u, 224u, 256u, 384u, 512u,
                     768u, 1024u, 1536u, 2048u, 3072u, 4096u}) {
    const SparsePoly p = irreducible_poly(n);
    EXPECT_EQ(p.degree(), n);
    EXPECT_LE(p.exponents.size(), 5u) << "not low-weight for n=" << n;
    EXPECT_TRUE(is_irreducible(p)) << "n=" << n;
  }
}

TEST(IrreduciblePoly, RejectsTrivialDegrees) {
  EXPECT_THROW(irreducible_poly(0), std::invalid_argument);
  EXPECT_THROW(irreducible_poly(1), std::invalid_argument);
}

TEST(IrreduciblePoly, OffTableWidthIsATypedError) {
  EXPECT_THROW(irreducible_poly(2801), UnsupportedFieldWidth);
  EXPECT_THROW(Gf2Field(33), UnsupportedFieldWidth);
}

TEST(Gf2Field, MultiplicativeIdentityAndZero) {
  const Gf2Field f(64);
  QKD_SEEDED_RNG(rng, 7);
  const auto a = rng.next_bits(64);
  const auto one = qkd::BitVector::from_uint64(1, 64);
  const auto zero = qkd::BitVector(64);
  EXPECT_EQ(f.multiply(a, one), a);
  EXPECT_EQ(f.multiply(a, zero), zero);
}

TEST(Gf2Field, MultiplicationAssociativeAndCommutative) {
  const Gf2Field f(96);
  QKD_SEEDED_RNG(rng, 8);
  for (int i = 0; i < 20; ++i) {
    const auto a = rng.next_bits(96);
    const auto b = rng.next_bits(96);
    const auto c = rng.next_bits(96);
    EXPECT_EQ(f.multiply(a, b), f.multiply(b, a));
    EXPECT_EQ(f.multiply(f.multiply(a, b), c), f.multiply(a, f.multiply(b, c)));
  }
}

TEST(Gf2Field, DistributesOverAddition) {
  const Gf2Field f(128);
  QKD_SEEDED_RNG(rng, 9);
  for (int i = 0; i < 20; ++i) {
    const auto a = rng.next_bits(128);
    const auto b = rng.next_bits(128);
    const auto c = rng.next_bits(128);
    const auto lhs = f.multiply(a, f.add(b, c));
    const auto rhs = f.add(f.multiply(a, b), f.multiply(a, c));
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(Gf2Field, FrobeniusFixedField) {
  // In GF(2^n), a^(2^n) == a for every element (Frobenius has order n).
  const Gf2Field f(32);
  QKD_SEEDED_RNG(rng, 10);
  for (int i = 0; i < 10; ++i) {
    const auto a = rng.next_bits(32);
    EXPECT_EQ(f.pow2k(a, 32), a);
  }
}

TEST(Gf2Field, SquareMatchesSelfMultiply) {
  const Gf2Field f(160);
  QKD_SEEDED_RNG(rng, 11);
  const auto a = rng.next_bits(160);
  EXPECT_EQ(f.pow2k(a, 1), f.multiply(a, a));
}

TEST(Gf2Field, RejectsWrongDegreeModulus) {
  EXPECT_THROW(Gf2Field(32, SparsePoly{{16, 5, 3, 1, 0}}),
               std::invalid_argument);
}

TEST(Gf2Field, RejectsOversizeOperands) {
  const Gf2Field f(32);
  QKD_SEEDED_RNG(rng, 12);
  EXPECT_THROW(f.multiply(rng.next_bits(33), rng.next_bits(32)),
               std::invalid_argument);
}

TEST(Gf2Field, NonTrivialElementHasFullOrbitUnderFrobenius) {
  // x generates a nontrivial Frobenius orbit unless it lies in a subfield —
  // it cannot for a degree-32 field element equal to x.
  const Gf2Field f(32);
  qkd::BitVector x(32);
  x.set(1, true);
  EXPECT_NE(f.pow2k(x, 16), x);  // not fixed by the halfway Frobenius power
  EXPECT_EQ(f.pow2k(x, 32), x);
}

}  // namespace
}  // namespace qkd::crypto
