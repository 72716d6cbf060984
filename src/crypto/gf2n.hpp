// Arithmetic in GF(2^n) for privacy amplification.
//
// Section 5 of the paper: "The side that initiates privacy amplification
// chooses a linear hash function over the Galois Field GF[2^n] where n is the
// number of bits as input, rounded up to a multiple of 32. He then transmits
// ... the (sparse) primitive polynomial of the Galois field, a multiplier
// (n bits long), and an m-bit polynomial to add ..."
//
// Elements are polynomials over GF(2) packed into BitVectors (bit i = the
// coefficient of x^i). Field moduli are low-weight (trinomial / pentanomial)
// irreducible polynomials from a built-in table covering the n values the
// stack uses (the PA width ladder plus a few test widths); every entry is
// proven by the Ben-Or/Rabin irreducibility test in the crypto tests, and
// any other n is a typed error. (Irreducibility is what 2-universality of
// the hash requires; the paper says "primitive", which the table entries
// also are, but we only rely on the field structure.)
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/common/bitvector.hpp"

namespace qkd::crypto {

/// A sparse polynomial over GF(2), stored as the sorted list of exponents with
/// nonzero coefficients, highest first, e.g. x^32+x^7+x^3+x^2+1 is
/// {32, 7, 3, 2, 0}.
struct SparsePoly {
  std::vector<unsigned> exponents;

  unsigned degree() const { return exponents.empty() ? 0 : exponents.front(); }
  qkd::BitVector to_bits() const;  // dense, degree+1 bits
  bool operator==(const SparsePoly&) const = default;
};

/// Carry-less (GF(2)[x]) product of two bit-polynomials; result has
/// a.size()+b.size()-1 bits (or is empty if either input is empty).
qkd::BitVector clmul(const qkd::BitVector& a, const qkd::BitVector& b);

/// Reduces `value` modulo the sparse polynomial `mod` (in place); afterwards
/// value.size() == mod.degree().
void reduce_mod(qkd::BitVector& value, const SparsePoly& mod);

/// Ben-Or / Rabin irreducibility test over GF(2).
bool is_irreducible(const SparsePoly& poly);

/// A field width with no polynomial on the built-in table.
class UnsupportedFieldWidth : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// The built-in low-weight irreducible polynomial of the given degree.
/// Throws UnsupportedFieldWidth for a degree not on the table.
SparsePoly irreducible_poly(unsigned degree);

/// The finite field GF(2^n) with a fixed modulus.
class Gf2Field {
 public:
  /// Uses irreducible_poly(n) as the modulus.
  explicit Gf2Field(unsigned n);
  /// Uses a caller-supplied modulus (must be irreducible of degree n); this is
  /// the path a privacy-amplification *responder* takes when the initiator
  /// announces the polynomial on the wire.
  Gf2Field(unsigned n, SparsePoly modulus);

  unsigned n() const { return n_; }
  const SparsePoly& modulus() const { return modulus_; }

  /// Field multiplication: inputs are n-bit values (shorter inputs are
  /// implicitly zero-extended), output is exactly n bits.
  qkd::BitVector multiply(const qkd::BitVector& a, const qkd::BitVector& b) const;

  /// Field addition (XOR); sizes may differ, result has n bits.
  qkd::BitVector add(const qkd::BitVector& a, const qkd::BitVector& b) const;

  /// a^(2^k) via repeated squaring (used by the irreducibility test and tests).
  qkd::BitVector pow2k(const qkd::BitVector& a, unsigned k) const;

 private:
  unsigned n_;
  SparsePoly modulus_;
};

}  // namespace qkd::crypto
