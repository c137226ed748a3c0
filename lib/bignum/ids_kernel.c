/* Wide-limb bignum kernels: 62-bit limbs, unsigned __int128 partials.
 *
 * Every entry point works on plain OCaml `int array` values whose elements
 * are limbs in [0, 2^62).  Tagged representation: an element read with
 * Long_val is the limb, an element written with Val_long stores it; limbs
 * are immediates, so no write barrier is needed and the stubs can be
 * [@@noalloc].  Callers allocate the destination array (never shared with
 * an operand).  The stubs check nothing themselves: kernel.ml's wrappers,
 * the only way OCaml reaches them, check every size stated per function
 * (IDS_MUL_CAP, IDS_MONT_CAP, operand and destination lengths) and raise
 * Invalid_argument before the call, so no contract violation reaches the
 * fixed stack buffers below.
 *
 * Carry headroom at radix 2^62: a limb product is < 2^124, so an
 * operand-scanning inner loop `t = r[i+j] + a_i*b_j + carry` stays below
 * 2^124 + 2^62 + 2^63 < 2^125 in a u128 accumulator, and `t >> 62` is a
 * valid carry < 2^63 for the next column.  Column (Comba) scanning would
 * overflow the u128 after 16 products, hence operand scanning throughout.
 */

#include <stdint.h>
#include <caml/mlvalues.h>

typedef unsigned __int128 u128;
typedef uint64_t u64;

#define LIMB_BITS 62
#define LIMB_MASK (((u64)1 << LIMB_BITS) - 1)

/* Sizing contract: Montgomery moduli are capped at 512 limbs by
 * Montgomery.make, and Nat's dispatch only routes operand pairs with
 * la + lb <= IDS_MUL_CAP here (Karatsuba/Toom split above that). */
#define IDS_MUL_CAP 1024
#define IDS_MONT_CAP 512

/* dst[0 .. la+lb-1] = a * b.  Requires la, lb >= 1 and la + lb <= IDS_MUL_CAP. */
CAMLprim value ids_nat_mul_stub(value va, value vb, value vdst)
{
  mlsize_t la = Wosize_val(va), lb = Wosize_val(vb);
  u64 r[IDS_MUL_CAP]; /* only the la+lb live entries are ever touched */
  for (mlsize_t i = 0; i < la + lb; i++) r[i] = 0;
  for (mlsize_t i = 0; i < la; i++) {
    u64 ai = (u64)Long_val(Field(va, i));
    u64 carry = 0;
    for (mlsize_t j = 0; j < lb; j++) {
      u128 t = (u128)r[i + j] + (u128)ai * (u64)Long_val(Field(vb, j)) + carry;
      r[i + j] = (u64)t & LIMB_MASK;
      carry = (u64)(t >> LIMB_BITS);
    }
    r[i + lb] = carry; /* columns above i+lb untouched this pass */
  }
  for (mlsize_t i = 0; i < la + lb; i++)
    Field(vdst, i) = Val_long((long)r[i]);
  return Val_unit;
}

/* dst[0 .. 2*la-1] = a * a.  Requires la >= 1 and 2*la <= IDS_MUL_CAP.
 * Cross products are accumulated once and doubled via the u128 temp
 * (2*x_i*x_j < 2^125), then the diagonal terms are folded in. */
CAMLprim value ids_nat_sqr_stub(value va, value vdst)
{
  mlsize_t la = Wosize_val(va);
  u64 r[IDS_MUL_CAP];
  for (mlsize_t i = 0; i < 2 * la; i++) r[i] = 0;
  for (mlsize_t i = 0; i < la; i++) {
    u64 ai = (u64)Long_val(Field(va, i));
    u128 carry = 0;
    for (mlsize_t j = i + 1; j < la; j++) {
      u128 t = (u128)r[i + j] + 2 * ((u128)ai * (u64)Long_val(Field(va, j))) + carry;
      r[i + j] = (u64)t & LIMB_MASK;
      carry = t >> LIMB_BITS;
    }
    /* carry < 2^64; walk it up (bounded: r has headroom up to 2*la). */
    for (mlsize_t k = i + la; carry; k++) {
      u128 t = (u128)r[k] + carry;
      r[k] = (u64)t & LIMB_MASK;
      carry = t >> LIMB_BITS;
    }
  }
  {
    u64 carry = 0;
    for (mlsize_t i = 0; i < la; i++) {
      u64 ai = (u64)Long_val(Field(va, i));
      u128 t = (u128)r[2 * i] + (u128)ai * ai + carry;
      r[2 * i] = (u64)t & LIMB_MASK;
      u128 t2 = (u128)r[2 * i + 1] + (t >> LIMB_BITS);
      r[2 * i + 1] = (u64)t2 & LIMB_MASK;
      carry = (u64)(t2 >> LIMB_BITS);
    }
    /* final carry dies at the top limb: a^2 < 2^(124*la) fits 2*la limbs */
  }
  for (mlsize_t i = 0; i < 2 * la; i++)
    Field(vdst, i) = Val_long((long)r[i]);
  return Val_unit;
}

/* In-place SOS Montgomery reduction of t[0 .. 2k+1] by (m, n0), writing the
 * k-limb result (conditionally subtracted below m) into out.  t holds the
 * double-width input; n0 = -m^{-1} mod 2^62. */
static void mont_reduce(mlsize_t k, const u64 *m, u64 n0, u64 *t, u64 *out)
{
  for (mlsize_t i = 0; i < k; i++) {
    u64 mu = (t[i] * n0) & LIMB_MASK; /* low 62 bits of the wrapping product */
    u64 carry = 0;
    for (mlsize_t j = 0; j < k; j++) {
      u128 s = (u128)t[i + j] + (u128)mu * m[j] + carry;
      t[i + j] = (u64)s & LIMB_MASK;
      carry = (u64)(s >> LIMB_BITS);
    }
    for (mlsize_t idx = i + k; carry; idx++) {
      u128 s = (u128)t[idx] + carry;
      t[idx] = (u64)s & LIMB_MASK;
      carry = (u64)(s >> LIMB_BITS);
    }
  }
  /* t[k .. 2k] now holds v/R + (mu.m)/R < 2m, i.e. at most k limbs plus a
   * possible top bit in t[2k]. */
  int ge = t[2 * k] != 0;
  if (!ge) {
    ge = 1;
    for (mlsize_t i = k; i-- > 0;) {
      if (t[k + i] != m[i]) { ge = t[k + i] > m[i]; break; }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (mlsize_t i = 0; i < k; i++) {
      u64 d = t[k + i] - m[i] - borrow;
      borrow = (d >> 63) & 1; /* two's-complement wrap flags the borrow */
      out[i] = d & LIMB_MASK;
    }
  } else {
    for (mlsize_t i = 0; i < k; i++) out[i] = t[k + i];
  }
}

/* dst[0..k-1] = mont_mul(x, y) = x*y*R^{-1} mod m, R = 2^(62k).
 * x, y are k-limb arrays below m; k <= IDS_MONT_CAP.
 *
 * Fused FIOS loop: each outer step folds x*y_i and mu*m into the running
 * k-limb accumulator in one pass, so the working set is k+1 words instead
 * of the 2k+2 of a separate product + reduce (SOS) pair.  Inner sum bound:
 * t[j] + x_j*y_i + mu*m_j + carry < 2^62 + 2*(2^62-1)^2 + 2^63 < 2^126,
 * so the u128 holds it and the shifted carry stays below 2^63.  The
 * classical invariant T <= 2m - 1 keeps the top word t[k] in {0, 1}. */
CAMLprim value ids_mont_mul_stub(value vm, value vn0, value vx, value vy, value vdst)
{
  mlsize_t k = Wosize_val(vm);
  u64 m[IDS_MONT_CAP], x[IDS_MONT_CAP], t[IDS_MONT_CAP + 1];
  u64 n0 = (u64)Long_val(vn0);
  for (mlsize_t i = 0; i < k; i++) {
    m[i] = (u64)Long_val(Field(vm, i));
    x[i] = (u64)Long_val(Field(vx, i));
    t[i] = 0;
  }
  t[k] = 0;
  for (mlsize_t i = 0; i < k; i++) {
    u64 yi = (u64)Long_val(Field(vy, i));
    u128 s = (u128)t[0] + (u128)x[0] * yi;
    /* mu needs (s mod 2^62)*n0 mod 2^62; the stray bits 62..63 of (u64)s
     * contribute multiples of 2^62 to the product, invisible mod 2^62. */
    u64 mu = ((u64)s * n0) & LIMB_MASK;
    s += (u128)mu * m[0]; /* low 62 bits cancel by choice of mu */
    u64 carry = (u64)(s >> LIMB_BITS);
    for (mlsize_t j = 1; j < k; j++) {
      u128 s2 = (u128)t[j] + (u128)x[j] * yi + (u128)mu * m[j] + carry;
      t[j - 1] = (u64)s2 & LIMB_MASK;
      carry = (u64)(s2 >> LIMB_BITS);
    }
    u64 top = t[k] + carry; /* t[k] <= 1 and carry < 2^63: no u64 overflow */
    t[k - 1] = top & LIMB_MASK;
    t[k] = top >> LIMB_BITS;
  }
  int ge = t[k] != 0;
  if (!ge) {
    ge = 1;
    for (mlsize_t i = k; i-- > 0;) {
      if (t[i] != m[i]) { ge = t[i] > m[i]; break; }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (mlsize_t i = 0; i < k; i++) {
      u64 d = t[i] - m[i] - borrow;
      borrow = (d >> 63) & 1;
      Field(vdst, i) = Val_long((long)(d & LIMB_MASK));
    }
  } else {
    for (mlsize_t i = 0; i < k; i++)
      Field(vdst, i) = Val_long((long)t[i]);
  }
  return Val_unit;
}

/* dst[0..k-1] = mont_sqr(x) = x^2*R^{-1} mod m.
 * Same fused FIOS loop as mont_mul with y = x; the single pass over the
 * k+1-word accumulator beats the halved product count of a two-pass
 * doubled-cross SOS at every modulus size the service uses. */
CAMLprim value ids_mont_sqr_stub(value vm, value vn0, value vx, value vdst)
{
  mlsize_t k = Wosize_val(vm);
  u64 m[IDS_MONT_CAP], x[IDS_MONT_CAP], t[IDS_MONT_CAP + 1];
  u64 n0 = (u64)Long_val(vn0);
  for (mlsize_t i = 0; i < k; i++) {
    m[i] = (u64)Long_val(Field(vm, i));
    x[i] = (u64)Long_val(Field(vx, i));
    t[i] = 0;
  }
  t[k] = 0;
  for (mlsize_t i = 0; i < k; i++) {
    u64 yi = x[i];
    u128 s = (u128)t[0] + (u128)x[0] * yi;
    u64 mu = ((u64)s * n0) & LIMB_MASK;
    s += (u128)mu * m[0];
    u64 carry = (u64)(s >> LIMB_BITS);
    for (mlsize_t j = 1; j < k; j++) {
      u128 s2 = (u128)t[j] + (u128)x[j] * yi + (u128)mu * m[j] + carry;
      t[j - 1] = (u64)s2 & LIMB_MASK;
      carry = (u64)(s2 >> LIMB_BITS);
    }
    u64 top = t[k] + carry;
    t[k - 1] = top & LIMB_MASK;
    t[k] = top >> LIMB_BITS;
  }
  int ge = t[k] != 0;
  if (!ge) {
    ge = 1;
    for (mlsize_t i = k; i-- > 0;) {
      if (t[i] != m[i]) { ge = t[i] > m[i]; break; }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (mlsize_t i = 0; i < k; i++) {
      u64 d = t[i] - m[i] - borrow;
      borrow = (d >> 63) & 1;
      Field(vdst, i) = Val_long((long)(d & LIMB_MASK));
    }
  } else {
    for (mlsize_t i = 0; i < k; i++)
      Field(vdst, i) = Val_long((long)t[i]);
  }
  return Val_unit;
}

/* dst[0..k-1] = v * R^{-1} mod m for v of lv <= 2k limbs (entry/exit REDC). */
CAMLprim value ids_mont_redc_stub(value vm, value vn0, value vv, value vdst)
{
  mlsize_t k = Wosize_val(vm), lv = Wosize_val(vv);
  u64 m[IDS_MONT_CAP], t[2 * IDS_MONT_CAP + 2], out[IDS_MONT_CAP];
  u64 n0 = (u64)Long_val(vn0);
  for (mlsize_t i = 0; i < 2 * k + 2; i++) t[i] = 0;
  for (mlsize_t i = 0; i < k; i++)
    m[i] = (u64)Long_val(Field(vm, i));
  for (mlsize_t i = 0; i < lv; i++)
    t[i] = (u64)Long_val(Field(vv, i));
  mont_reduce(k, m, n0, t, out);
  for (mlsize_t i = 0; i < k; i++)
    Field(vdst, i) = Val_long((long)out[i]);
  return Val_unit;
}

/* a * b mod p for 0 <= a, b < p < 2^62: the scalar kernel behind
 * Field.int62_field and one-limb Modarith contexts. */
CAMLprim value ids_mulmod62_stub(value va, value vb, value vp)
{
  u128 t = (u128)(u64)Long_val(va) * (u64)Long_val(vb);
  return Val_long((long)(u64)(t % (u64)Long_val(vp)));
}
