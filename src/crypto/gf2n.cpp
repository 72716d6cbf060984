#include "src/crypto/gf2n.hpp"

#include <array>
#include <bit>
#include <map>
#include <stdexcept>
#include <string>

namespace qkd::crypto {
namespace {

// Spreads the 8 bits of a byte into the even positions of a 16-bit word;
// polynomial squaring over GF(2) is exactly this bit-spreading.
constexpr std::array<std::uint16_t, 256> make_spread_table() {
  std::array<std::uint16_t, 256> t{};
  for (unsigned b = 0; b < 256; ++b) {
    std::uint16_t s = 0;
    for (unsigned i = 0; i < 8; ++i)
      if (b & (1u << i)) s |= static_cast<std::uint16_t>(1u << (2 * i));
    t[b] = s;
  }
  return t;
}
constexpr auto kSpread = make_spread_table();

// Degree of a dense polynomial, or -1 for the zero polynomial.
int degree_of(const qkd::BitVector& p) {
  for (std::size_t i = p.size(); i-- > 0;)
    if (p.get(i)) return static_cast<int>(i);
  return -1;
}

// Polynomial squaring: spread every bit i to position 2i.
qkd::BitVector square_poly(const qkd::BitVector& a) {
  const auto bytes = a.to_bytes();
  qkd::BitVector out(a.size() * 2);
  auto words = out.words();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::uint64_t spread = kSpread[bytes[i]];
    const std::size_t bitpos = 16 * i;
    words[bitpos / 64] |= spread << (bitpos % 64);
    // A 16-bit spread never straddles a word boundary because bitpos is a
    // multiple of 16 and 16 divides 64.
  }
  out.normalize_tail();
  return out;
}

// GCD of two dense polynomials over GF(2) (Euclid with shifted XORs).
qkd::BitVector poly_gcd(qkd::BitVector a, qkd::BitVector b) {
  int da = degree_of(a), db = degree_of(b);
  while (db >= 0) {
    while (da >= db) {
      // a ^= b << (da - db)
      const std::size_t shift = static_cast<std::size_t>(da - db);
      for (int i = db; i >= 0; --i)
        if (b.get(static_cast<std::size_t>(i)))
          a.flip(static_cast<std::size_t>(i) + shift);
      da = degree_of(a);
      if (da < 0) break;
    }
    std::swap(a, b);
    std::swap(da, db);
  }
  a.resize(static_cast<std::size_t>(da + 1));
  return a;
}

std::vector<unsigned> prime_divisors(unsigned n) {
  std::vector<unsigned> out;
  for (unsigned p = 2; p * p <= n; ++p) {
    if (n % p == 0) {
      out.push_back(p);
      while (n % p == 0) n /= p;
    }
  }
  if (n > 1) out.push_back(n);
  return out;
}

// Known low-weight irreducible polynomials (Seroussi, HPL-98-135 and common
// usage, e.g. the GCM polynomial for n = 128), served as they stand: every
// entry is proven with is_irreducible() once, by
// IrreduciblePoly.ServesAllStackDegrees (which lists the whole table),
// instead of on each first use at run time.
const std::map<unsigned, SparsePoly>& poly_table() {
  static const std::map<unsigned, SparsePoly> table = {
      {32, {{32, 7, 3, 2, 0}}},    {64, {{64, 4, 3, 1, 0}}},
      {96, {{96, 10, 9, 6, 0}}},   {128, {{128, 7, 2, 1, 0}}},
      {160, {{160, 5, 3, 2, 0}}},  {192, {{192, 15, 11, 5, 0}}},
      {224, {{224, 9, 8, 3, 0}}},  {256, {{256, 10, 5, 2, 0}}},
      {384, {{384, 12, 3, 2, 0}}}, {512, {{512, 8, 5, 2, 0}}},
      {768, {{768, 19, 17, 4, 0}}},{1024, {{1024, 19, 6, 1, 0}}},
      {1536, {{1536, 21, 6, 2, 0}}},
      {2048, {{2048, 19, 14, 13, 0}}},
      {3072, {{3072, 11, 10, 5, 0}}},
      {4096, {{4096, 27, 15, 1, 0}}},
  };
  return table;
}

}  // namespace

qkd::BitVector SparsePoly::to_bits() const {
  qkd::BitVector v(degree() + 1);
  for (unsigned e : exponents) v.set(e, true);
  return v;
}

qkd::BitVector clmul(const qkd::BitVector& a, const qkd::BitVector& b) {
  if (a.empty() || b.empty()) return {};
  qkd::BitVector out(a.size() + b.size() - 1);
  auto ow = out.words();
  const auto bw = b.words();
  const auto aw = a.words();
  for (std::size_t wi = 0; wi < aw.size(); ++wi) {
    std::uint64_t word = aw[wi];
    while (word != 0) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(word));
      word &= word - 1;
      const std::size_t shift = wi * 64 + bit;
      const std::size_t ws = shift / 64, bs = shift % 64;
      for (std::size_t j = 0; j < bw.size(); ++j) {
        ow[ws + j] ^= bw[j] << bs;
        if (bs != 0 && ws + j + 1 < ow.size()) ow[ws + j + 1] ^= bw[j] >> (64 - bs);
      }
    }
  }
  out.normalize_tail();
  return out;
}

void reduce_mod(qkd::BitVector& value, const SparsePoly& mod) {
  const unsigned n = mod.degree();
  if (n == 0) throw std::invalid_argument("reduce_mod: degree-0 modulus");
  for (std::size_t p = value.size(); p-- > n;) {
    if (!value.get(p)) continue;
    value.set(p, false);
    for (unsigned t : mod.exponents) {
      if (t == n) continue;
      value.flip(p - n + t);
    }
  }
  value.resize(n);
}

bool is_irreducible(const SparsePoly& poly) {
  const unsigned n = poly.degree();
  if (n == 0) return false;
  if (n == 1) return true;
  // Constant term must be 1 or x divides the polynomial.
  bool has_const = false;
  for (unsigned e : poly.exponents) has_const |= (e == 0);
  if (!has_const) return false;

  // Rabin: f (deg n) is irreducible iff x^(2^n) == x (mod f) and for every
  // prime p | n, gcd(x^(2^(n/p)) - x, f) == 1. One chain of n squarings,
  // checkpointing at the n/p exponents.
  std::vector<unsigned> checkpoints;
  for (unsigned p : prime_divisors(n)) checkpoints.push_back(n / p);

  qkd::BitVector h(n);
  if (n > 1) h.set(1, true);  // h = x
  const qkd::BitVector f_bits = poly.to_bits();

  for (unsigned k = 1; k <= n; ++k) {
    qkd::BitVector sq = square_poly(h);
    reduce_mod(sq, poly);
    h = std::move(sq);
    for (unsigned cp : checkpoints) {
      if (k != cp) continue;
      qkd::BitVector diff = h;
      if (diff.size() > 1) diff.flip(1);  // h + x
      qkd::BitVector g = poly_gcd(diff, f_bits);
      if (degree_of(g) != 0) return false;  // nontrivial common factor
    }
  }
  // h == x^(2^n) mod f must equal x.
  qkd::BitVector x(n);
  if (n > 1) x.set(1, true);
  return h == x;
}

SparsePoly irreducible_poly(unsigned degree) {
  const auto& table = poly_table();
  const auto it = table.find(degree);
  if (it == table.end())
    throw UnsupportedFieldWidth(
        "irreducible_poly: no tabled polynomial of degree " +
        std::to_string(degree));
  return it->second;
}

Gf2Field::Gf2Field(unsigned n) : n_(n), modulus_(irreducible_poly(n)) {}

Gf2Field::Gf2Field(unsigned n, SparsePoly modulus)
    : n_(n), modulus_(std::move(modulus)) {
  if (modulus_.degree() != n)
    throw std::invalid_argument("Gf2Field: modulus degree != n");
}

qkd::BitVector Gf2Field::multiply(const qkd::BitVector& a,
                                  const qkd::BitVector& b) const {
  if (a.size() > n_ || b.size() > n_)
    throw std::invalid_argument("Gf2Field::multiply: operand wider than field");
  qkd::BitVector prod = clmul(a, b);
  if (prod.size() < n_) {
    prod.resize(n_);
    return prod;
  }
  reduce_mod(prod, modulus_);
  return prod;
}

qkd::BitVector Gf2Field::add(const qkd::BitVector& a,
                             const qkd::BitVector& b) const {
  qkd::BitVector out = a;
  out.resize(n_);
  qkd::BitVector rhs = b;
  rhs.resize(n_);
  out ^= rhs;
  return out;
}

qkd::BitVector Gf2Field::pow2k(const qkd::BitVector& a, unsigned k) const {
  qkd::BitVector h = a;
  h.resize(n_);
  for (unsigned i = 0; i < k; ++i) {
    qkd::BitVector sq = square_poly(h);
    reduce_mod(sq, modulus_);
    h = std::move(sq);
  }
  return h;
}

}  // namespace qkd::crypto
