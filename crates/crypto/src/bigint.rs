//! Arbitrary-precision unsigned integers, from scratch.
//!
//! This is the arithmetic substrate for the Schnorr signature scheme, the
//! Chaum–Pedersen DLEQ proofs, and the VRF (all over RFC 3526 MODP groups).
//! Limbs are 64-bit, stored little-endian, always normalized (no trailing
//! zero limbs; zero is the empty limb vector).
//!
//! Division uses Knuth's Algorithm D. Modular exponentiation under an odd
//! modulus (every prime this crate touches) runs in [`Montgomery`] form:
//! residues are fixed width, every product is written into scratch that
//! an exponentiation allocates once, and exponents are consumed in 4-bit
//! windows. Underneath, one of two kernels multiplies, chosen by the CPU
//! ([`kernel`]): a portable one on 64-bit limbs (a fused multiply-and-
//! reduce and a dedicated squaring), or an almost-Montgomery product on
//! 52-bit digits with AVX-512 IFMA. A full-width 2048-bit exponentiation
//! costs ~3.3 ms on the first and ~1.0 ms on the second (DESIGN.md
//! § "Big-integer kernel" and § "Montgomery kernel on IFMA" have the
//! per-primitive tables); the simulation signer avoids even that cost for
//! high-volume runs. Other moduli fall back to plain square-and-multiply
//! with a Knuth division per step, which is also the oracle both kernels
//! are tested against.

use std::cmp::Ordering;
use std::fmt;

use rand::Rng;

use crate::stats::Primitive;

/// An arbitrary-precision unsigned integer.
///
/// # Examples
///
/// ```
/// use prb_crypto::bigint::BigUint;
///
/// let a = BigUint::from_u64(10).pow_mod(&BigUint::from_u64(20), &BigUint::from_hex("1000000007").unwrap());
/// assert_eq!(a, BigUint::from_u64(0xb03e8c6d2)); // 10^20 mod 0x1000000007
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian 64-bit limbs, normalized.
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = BigUint {
            limbs: vec![lo, hi],
        };
        n.normalize();
        n
    }

    /// Builds from big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut buf = [0u8; 8];
            buf[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(buf));
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serializes to minimal big-endian bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let first_nonzero = bytes.iter().position(|&b| b != 0).unwrap_or(7);
                out.extend_from_slice(&bytes[first_nonzero..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to big-endian bytes left-padded to `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(
            raw.len() <= len,
            "value needs {} bytes, buffer is {len}",
            raw.len()
        );
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a hex string (no prefix, case-insensitive).
    ///
    /// Accepts odd-length strings. Returns `None` on invalid characters.
    pub fn from_hex(s: &str) -> Option<Self> {
        let padded = if s.len() % 2 == 1 {
            format!("0{s}")
        } else {
            s.to_owned()
        };
        let bytes = crate::hex::decode(&padded).ok()?;
        Some(Self::from_bytes_be(&bytes))
    }

    /// Hex representation without leading zeros ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let s = crate::hex::encode(&self.to_bytes_be());
        s.trim_start_matches('0').to_owned()
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Returns the low 64 bits.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Builds from little-endian limbs (trailing zero limbs allowed).
    fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`, or `None` if the result would be negative.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = self.clone();
        out.sub_assign(other);
        Some(out)
    }

    /// `self -= other` in place; the caller guarantees `other <= self`.
    fn sub_assign(&mut self, other: &BigUint) {
        let (low, high) = self.limbs.split_at_mut(other.limbs.len());
        let mut borrow = false;
        for (a, &b) in low.iter_mut().zip(&other.limbs) {
            (*a, borrow) = a.borrowing_sub(b, borrow);
        }
        for a in high {
            if !borrow {
                break;
            }
            (*a, borrow) = a.borrowing_sub(0, borrow);
        }
        debug_assert!(!borrow);
        self.normalize();
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint subtraction underflow")
    }

    /// Schoolbook multiplication `self * other`.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &limb in &self.limbs {
                out.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let mut out = self.clone();
        out.shr_assign(bits);
        out
    }

    /// `self >>= bits` in place.
    fn shr_assign(&mut self, bits: usize) {
        let limb_shift = (bits / 64).min(self.limbs.len());
        self.limbs.drain(..limb_shift);
        let bit_shift = bits % 64;
        if bit_shift != 0 {
            let mut high = 0u64;
            for limb in self.limbs.iter_mut().rev() {
                let low = *limb >> bit_shift;
                (*limb, high) = (low | high, *limb << (64 - bit_shift));
            }
        }
        self.normalize();
    }

    /// Number of trailing zero bits (0 for zero).
    fn trailing_zeros(&self) -> usize {
        match self.limbs.iter().position(|&l| l != 0) {
            None => 0,
            Some(i) => i * 64 + self.limbs[i].trailing_zeros() as usize,
        }
    }

    /// Divides by a single limb, returning `(quotient, remainder)`.
    fn div_rem_limb(&self, divisor: u64) -> (BigUint, u64) {
        assert_ne!(divisor, 0, "division by zero");
        let mut quotient = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            quotient[i] = (cur / divisor as u128) as u64;
            rem = cur % divisor as u128;
        }
        let mut q = BigUint { limbs: quotient };
        q.normalize();
        (q, rem as u64)
    }

    /// Euclidean division: returns `(self / divisor, self % divisor)`.
    ///
    /// Implements Knuth TAOCP vol. 2 Algorithm D for multi-limb divisors.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_limb(divisor.limbs[0]);
            return (q, BigUint::from_u64(r));
        }

        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().expect("nonzero").leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        let mut u = self.shl(shift).limbs;
        let n = v.len();
        let m = u.len() - n;
        u.push(0); // extra high limb u[m+n]

        let mut q = vec![0u64; m + 1];
        let v_top = v[n - 1];
        let v_second = v[n - 2];

        // D2..D7: main loop.
        for j in (0..=m).rev() {
            // D3: estimate qhat.
            let numerator = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = numerator / v_top as u128;
            let mut rhat = numerator % v_top as u128;
            while qhat >= 1u128 << 64
                || qhat * v_second as u128 > ((rhat << 64) | u[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >= 1u128 << 64 {
                    break;
                }
            }

            // D4: multiply and subtract u[j..j+n] -= qhat * v.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let product = qhat * v[i] as u128 + carry;
                carry = product >> 64;
                let sub = u[j + i] as i128 - (product as u64) as i128 - borrow;
                if sub < 0 {
                    u[j + i] = (sub + (1i128 << 64)) as u64;
                    borrow = 1;
                } else {
                    u[j + i] = sub as u64;
                    borrow = 0;
                }
            }
            let sub = u[j + n] as i128 - carry as i128 - borrow;
            if sub < 0 {
                // D6: qhat was one too large; add divisor back.
                u[j + n] = (sub + (1i128 << 64)) as u64;
                qhat -= 1;
                let mut carry2 = 0u128;
                for i in 0..n {
                    let sum = u[j + i] as u128 + v[i] as u128 + carry2;
                    u[j + i] = sum as u64;
                    carry2 = sum >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry2 as u64);
            } else {
                u[j + n] = sub as u64;
            }
            q[j] = qhat as u64;
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint { limbs: u };
        rem.shr_assign(shift);
        (quotient, rem)
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// `(self * other) mod modulus`.
    pub fn mul_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }

    /// `(self + other) mod modulus`. Both inputs must already be reduced.
    pub fn add_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        let sum = self.add(other);
        if &sum >= modulus {
            sum.sub(modulus)
        } else {
            sum
        }
    }

    /// `(self - other) mod modulus`. Both inputs must already be reduced.
    pub fn sub_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        if self >= other {
            self.sub(other)
        } else {
            self.add(modulus).sub(other)
        }
    }

    /// Modular exponentiation `self^exponent mod modulus`.
    ///
    /// Odd multi-limb moduli (every prime this crate works with) take the
    /// Montgomery fast path — one REDC per step instead of a full Knuth
    /// division; other moduli fall back to plain square-and-multiply.
    ///
    /// Callers that exponentiate repeatedly under the same modulus should
    /// build a [`Montgomery`] context once and call [`Montgomery::pow`]
    /// instead: this convenience wrapper re-derives `n'` and `R² mod n` on
    /// every invocation.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn pow_mod(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "zero modulus");
        if modulus == &BigUint::one() {
            return BigUint::zero();
        }
        if exponent.is_zero() {
            return BigUint::one();
        }
        if !modulus.is_even() && modulus.limbs.len() >= 2 {
            return Montgomery::new(modulus).pow(self, exponent);
        }
        crate::stats::record_modexp();
        self.pow_mod_plain(exponent, modulus)
    }

    /// The pre-Montgomery reference implementation (kept for the fallback
    /// and as the oracle in property tests).
    fn pow_mod_plain(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        let mut result = BigUint::one();
        let base = self.rem(modulus);
        // Left-to-right square and multiply.
        let bits = exponent.bit_len();
        for i in (0..bits).rev() {
            result = result.mul_mod(&result, modulus);
            if exponent.bit(i) {
                result = result.mul_mod(&base, modulus);
            }
        }
        result
    }

    /// Plain square-and-multiply oracle for the optimized paths.
    ///
    /// Every fast route in this crate ([`pow_mod`](Self::pow_mod),
    /// [`Montgomery::pow`], [`Montgomery::multi_pow`],
    /// [`FixedBaseTable::pow`]) is property-tested byte-identical against
    /// this implementation; it performs a full Knuth division per step and
    /// touches none of the precomputation machinery.
    pub fn pow_mod_reference(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "zero modulus");
        if modulus == &BigUint::one() {
            return BigUint::zero();
        }
        if exponent.is_zero() {
            return BigUint::one();
        }
        self.pow_mod_plain(exponent, modulus)
    }

    /// The 4-bit window of the exponent starting at bit `4 * d`.
    ///
    /// Window boundaries never straddle a limb because 4 divides 64.
    fn window4(&self, d: usize) -> usize {
        let bit = 4 * d;
        match self.limbs.get(bit / 64) {
            Some(limb) => ((limb >> (bit % 64)) & 0xF) as usize,
            None => 0,
        }
    }

    /// Modular inverse via the extended Euclidean algorithm.
    ///
    /// Returns `None` when `gcd(self, modulus) != 1`.
    pub fn inv_mod(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() || self.is_zero() {
            return None;
        }
        // Extended Euclid with signed coefficients tracked as (sign, magnitude).
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus);
        let mut t0 = (false, BigUint::zero()); // coefficient of modulus
        let mut t1 = (false, BigUint::one()); // coefficient of self
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q * t1
            let qt1 = q.mul(&t1.1);
            let t2 = signed_sub(&t0, &(t1.0, qt1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if r0 != BigUint::one() {
            return None;
        }
        let (neg, mag) = t0;
        let mag = mag.rem(modulus);
        Some(if neg && !mag.is_zero() {
            modulus.sub(&mag)
        } else {
            mag
        })
    }

    /// Uniformly samples a value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "empty sampling range");
        let bits = bound.bit_len();
        let limbs = bits.div_ceil(64);
        let top_mask = if bits.is_multiple_of(64) {
            u64::MAX
        } else {
            (1u64 << (bits % 64)) - 1
        };
        // Rejection sampling: expected < 2 iterations.
        loop {
            let mut candidate_limbs: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
            if let Some(top) = candidate_limbs.last_mut() {
                *top &= top_mask;
            }
            let mut candidate = BigUint {
                limbs: candidate_limbs,
            };
            candidate.normalize();
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random bases.
    ///
    /// Error probability is at most `4^-rounds` for composite inputs.
    pub fn is_probable_prime<R: Rng + ?Sized>(&self, rounds: u32, rng: &mut R) -> bool {
        if self.is_zero() || self == &BigUint::one() {
            return false;
        }
        let two = BigUint::from_u64(2);
        if self == &two {
            return true;
        }
        if self.is_even() {
            return false;
        }
        for &p in &[3u64, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
            let bp = BigUint::from_u64(p);
            if self == &bp {
                return true;
            }
            if self.rem(&bp).is_zero() {
                return false;
            }
        }
        // Write self - 1 = d * 2^s with d odd.
        let n_minus_1 = self.sub(&BigUint::one());
        let mut d = n_minus_1.clone();
        let mut s = 0usize;
        while d.is_even() {
            d = d.shr(1);
            s += 1;
        }
        'witness: for _ in 0..rounds {
            // Sample a base in [2, n-2].
            let upper = self.sub(&BigUint::from_u64(3));
            let a = BigUint::random_below(rng, &upper).add(&two);
            let mut x = a.pow_mod(&d, self);
            if x == BigUint::one() || x == n_minus_1 {
                continue 'witness;
            }
            for _ in 0..s - 1 {
                x = x.mul_mod(&x, self);
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }
}

/// `w[j] += x·xs[j] + y·ys[j]` for every `j`, the two products on
/// independent carry chains seeded with `carry_x` and `carry_y`; returns
/// the carries out. The inner loop of every kernel product: neither chain
/// waits for the other's carry, so the multiplier stays busy.
///
/// Neither step can overflow: `(2^64 − 1)² + 2·(2^64 − 1) = 2^128 − 1`.
#[inline(always)]
fn mac2(
    w: &mut [u64],
    x: u64,
    xs: &[u64],
    mut carry_x: u64,
    y: u64,
    ys: &[u64],
    mut carry_y: u64,
) -> (u64, u64) {
    debug_assert!(w.len() == xs.len() && w.len() == ys.len());
    for ((w, &xj), &yj) in w.iter_mut().zip(xs).zip(ys) {
        let (sum, hi) = x.carrying_mul_add(xj, *w, carry_x);
        carry_x = hi;
        (*w, carry_y) = y.carrying_mul_add(yj, sum, carry_y);
    }
    (carry_x, carry_y)
}

/// Bits per digit of the IFMA kernel: `vpmadd52{lo,hi}uq` multiply the
/// low 52 bits of each 64-bit lane.
const DIGIT_BITS: usize = 52;

const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;

/// The widest modulus the IFMA kernel is instantiated for, in digits
/// (16 vectors of 8: 6 654-bit moduli); wider ones run the portable
/// kernel on every CPU.
const IFMA_MAX_DIGITS: usize = 128;

/// Whether this CPU has every feature the IFMA kernel is compiled with.
///
/// `std` caches the CPUID result in an atomic, so this is a load and a
/// mask per feature.
#[cfg(target_arch = "x86_64")]
#[inline]
fn ifma_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512ifma")
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ifma_detected() -> bool {
    false
}

/// Name of the Montgomery kernel this process multiplies with: `"ifma52"`
/// where the CPU has AVX-512F and AVX-512 IFMA, `"portable"` everywhere
/// else.
///
/// The choice is made by the hardware when a [`Montgomery`] context is
/// built and cannot be set; this only reports it, so that a measurement
/// can say what produced it. (A modulus wider than 6 654 bits runs the
/// portable kernel on every CPU.) Every result is the same number on
/// either kernel.
pub fn kernel() -> &'static str {
    if ifma_detected() {
        "ifma52"
    } else {
        "portable"
    }
}

/// Digit `i` (bits `52·i .. 52·i + 52`) of little-endian `limbs`; zero
/// past their end.
#[inline]
fn limb_digit(limbs: &[u64], i: usize) -> u64 {
    let (j, off) = (DIGIT_BITS * i / 64, DIGIT_BITS * i % 64);
    let low = limbs.get(j).map_or(0, |&w| w >> off);
    let high = match limbs.get(j + 1) {
        Some(&w) if off > 64 - DIGIT_BITS => w << (64 - off),
        _ => 0,
    };
    (low | high) & DIGIT_MASK
}

/// `D = ⌈(bits + 2) / 52⌉`: the IFMA kernel's digit count for `modulus`,
/// the least that keeps `4n < R = 2^(52·D)`.
fn ifma_digits(modulus: &BigUint) -> usize {
    (modulus.bit_len() + 2).div_ceil(DIGIT_BITS)
}

/// `limbs`, a value below `2^(52·digits)`, as digits padded to whole
/// 8-lane vectors.
fn to_digits(limbs: &[u64], digits: usize) -> Vec<u64> {
    (0..digits.next_multiple_of(8))
        .map(|i| limb_digit(limbs, i))
        .collect()
}

/// The multiplier of an IFMA product, read one digit at a time: a residue
/// already in digits, or a packed `k`-limb one (a table row, a converted
/// input) unpacked as it is read.
#[derive(Clone, Copy)]
enum Operand<'a> {
    Digits(&'a [u64]),
    Limbs(&'a [u64]),
}

impl Operand<'_> {
    #[inline]
    fn digit(self, i: usize) -> u64 {
        match self {
            Operand::Digits(d) => d[i],
            Operand::Limbs(l) => limb_digit(l, i),
        }
    }
}

/// How a context multiplies, and so what its residues look like.
#[derive(Clone, Debug)]
enum Kernel {
    /// `k` 64-bit limbs, `R = 2^(64·k)`, every residue fully reduced.
    Portable,
    /// `8·⌈digits/8⌉` 52-bit digits (the top ones zero), `R = 2^(52·digits)`
    /// with `digits = ⌈(bits + 2) / 52⌉`, every residue below `2n`.
    Ifma52 {
        digits: usize,
        /// The modulus in digits.
        n52: Vec<u64>,
    },
}

/// Montgomery arithmetic context for a fixed odd modulus.
///
/// Precomputes `n' = -n^{-1} mod 2^64`, `R² mod n`, and `R mod n` so that
/// modular exponentiation needs only multiply-and-REDC steps — no division
/// in the hot loop. Build the context once per modulus and reuse it: the
/// precomputation performs two division-heavy reductions that would
/// otherwise be paid on every [`BigUint::pow_mod`] call.
///
/// # Representation
///
/// Two kernels sit under one set of algorithms, chosen by the CPU when the
/// context is built ([`kernel`]). On the portable one a residue is a
/// `k`-limb little-endian slice (`k` the limb count of `n`, `R = 2^(64·k)`)
/// holding a fully reduced value in Montgomery form. On AVX-512 IFMA hosts
/// it is `D = ⌈(bits + 2) / 52⌉` digits of 52 bits in 8-lane vectors,
/// `R = 2^(52·D)`, and almost reduced: `4n < R` keeps every product's
/// inputs and output below `2n` without a final subtraction. Either way
/// it is never a normalised `BigUint`. Table rows are `k` packed limbs,
/// fully reduced, on both kernels; the IFMA kernel reads them a digit at a
/// time. Every product writes into a buffer the caller owns: an
/// exponentiation allocates its accumulator, its product scratch and its
/// window table once (`Accumulator`), and the borrow checker keeps a
/// product's output apart from its inputs. Widths are taken from the
/// modulus, so any size works, and every `BigUint` that leaves the context
/// is fully reduced: the same number on either kernel.
#[derive(Clone, Debug)]
pub struct Montgomery {
    /// The modulus, `k` limbs.
    n: Vec<u64>,
    n_prime: u64,
    /// `R² mod n` as a residue: multiplying by it converts into
    /// Montgomery form.
    r2: Vec<u64>,
    /// `R mod n` as a residue: the Montgomery form of 1.
    one_m: Vec<u64>,
    modulus: BigUint,
    kernel: Kernel,
}

/// Exponents at or below this bit count skip the windowed table (the
/// 14-multiplication precomputation would outweigh the saved multiplies).
const WINDOW_MIN_BITS: usize = 48;

/// Entries per 4-bit window table: the powers `1..=15` of one base.
const WINDOW_ROWS: usize = 15;

impl Montgomery {
    /// Builds the context for an odd modulus `> 1`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is even, zero, or one.
    pub fn new(modulus: &BigUint) -> Self {
        Self::on_kernel(modulus, kernel()).unwrap_or_else(|| Self::build(modulus, false))
    }

    /// The context for `modulus` on the named kernel (see [`kernel`]), or
    /// `None` when this CPU cannot run it or the modulus is too wide for
    /// it.
    ///
    /// Not a way to configure arithmetic — [`Montgomery::new`] always
    /// takes what the CPU offers: it exists so that the differential tests
    /// and micro-benchmarks can run each kernel on one host. `"ifma52"`
    /// goes through the same run-time detection as every other context.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is even, zero, or one.
    #[doc(hidden)]
    pub fn on_kernel(modulus: &BigUint, name: &str) -> Option<Self> {
        match name {
            "portable" => Some(Self::build(modulus, false)),
            "ifma52" if ifma_detected() && ifma_digits(modulus) <= IFMA_MAX_DIGITS => {
                Some(Self::build(modulus, true))
            }
            _ => None,
        }
    }

    fn build(modulus: &BigUint, ifma: bool) -> Self {
        assert!(
            !modulus.is_even() && !modulus.is_zero(),
            "Montgomery modulus must be odd"
        );
        assert!(modulus != &BigUint::one(), "Montgomery modulus must be > 1");
        let n = modulus.limbs.clone();
        let k = n.len();
        // Newton iteration for the inverse of n[0] modulo 2^64:
        // x_{i+1} = x_i·(2 − n0·x_i); 6 steps double precision to 64 bits.
        let n0 = n[0];
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n_prime = inv.wrapping_neg();
        // R² mod n and R mod n, computed once with the general division,
        // as residues of the kernel.
        let (r_bits, kernel) = if ifma {
            let digits = ifma_digits(modulus);
            let n52 = to_digits(&n, digits);
            (DIGIT_BITS * digits, Kernel::Ifma52 { digits, n52 })
        } else {
            (64 * k, Kernel::Portable)
        };
        let residue = |x: BigUint| match &kernel {
            Kernel::Portable => {
                let mut limbs = x.limbs;
                limbs.resize(k, 0);
                limbs
            }
            Kernel::Ifma52 { digits, .. } => to_digits(&x.limbs, *digits),
        };
        Montgomery {
            n,
            n_prime,
            r2: residue(BigUint::one().shl(2 * r_bits).rem(modulus)),
            one_m: residue(BigUint::one().shl(r_bits).rem(modulus)),
            modulus: modulus.clone(),
            kernel,
        }
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    fn k(&self) -> usize {
        self.n.len()
    }

    /// Words in one of this context's residues: `k` limbs, or the IFMA
    /// kernel's digits padded to whole vectors.
    fn residue_len(&self) -> usize {
        self.one_m.len()
    }

    /// `x mod n` as a zero-padded `k`-limb operand (plain form).
    fn residue(&self, x: &BigUint) -> Vec<u64> {
        let mut limbs = if x < &self.modulus {
            x.limbs.clone()
        } else {
            x.rem(&self.modulus).limbs
        };
        limbs.resize(self.k(), 0);
        limbs
    }

    /// Converts into Montgomery form: `out = x·R mod n` (up to one `n` on
    /// the IFMA kernel), as the product of `x mod n` with `R²`.
    fn to_mont(&self, out: &mut [u64], x: &BigUint, t: &mut [u64]) {
        let x = self.residue(x);
        match self.kernel {
            Kernel::Portable => self.mont_mul(out, &x, &self.r2, t),
            Kernel::Ifma52 { .. } => self.amm(out, &self.r2, Operand::Limbs(&x)),
        }
    }

    /// Almost-Montgomery product on the IFMA kernel: `out = a·b·R⁻¹ mod n`
    /// up to one multiple of `n`, below `2n` when `a` and `b` are. `a` and
    /// `out` are residues in digits.
    ///
    /// The single place the IFMA kernel is entered, and with
    /// `sha256::compress_blocks` one of the two `unsafe` blocks of the
    /// workspace: the call from baseline code into a function compiled with
    /// AVX-512 enabled.
    #[allow(unsafe_code)]
    fn amm(&self, out: &mut [u64], a: &[u64], b: Operand<'_>) {
        let Kernel::Ifma52 { digits, n52 } = &self.kernel else {
            unreachable!("an IFMA product on a portable context");
        };
        #[cfg(target_arch = "x86_64")]
        if ifma_detected() {
            // SAFETY: `ifma::amm` is a safe function whose only requirement
            // is that the CPU supports the features it is compiled with
            // (`avx512f`, `avx512ifma`); `ifma_detected` has just checked
            // both at run time. It takes and returns ordinary references and
            // touches memory through no pointer.
            unsafe { ifma::amm(out, a, b, n52, self.n_prime & DIGIT_MASK, *digits) };
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (out, a, b, digits, n52);
        unreachable!("IFMA contexts are built only where ifma_detected() holds");
    }

    /// Writes the IFMA residue `digits` (below `2n`) fully reduced into the
    /// `k` limbs of `out`: one conditional subtraction of `n`, digit by
    /// digit, fused with the repacking.
    fn pack_reduced(&self, digits: &[u64], out: &mut [u64]) {
        let Kernel::Ifma52 { n52, .. } = &self.kernel else {
            unreachable!("an IFMA residue on a portable context");
        };
        let subtract = digits
            .iter()
            .rev()
            .zip(n52.iter().rev())
            .find_map(|(x, n)| (x != n).then_some(x > n))
            .unwrap_or(true);
        // The result is below n: whatever lands past limb k is zero.
        let mut put = |j: usize, limb: u64| match out.get_mut(j) {
            Some(w) => *w = limb,
            None => debug_assert_eq!(limb, 0),
        };
        let (mut borrow, mut held, mut held_bits, mut j) = (0u64, 0u128, 0, 0);
        for (&x, &nd) in digits.iter().zip(n52) {
            let x = if subtract {
                let diff = x.wrapping_sub(nd).wrapping_sub(borrow);
                borrow = diff >> 63;
                diff & DIGIT_MASK
            } else {
                x
            };
            held |= u128::from(x) << held_bits;
            held_bits += DIGIT_BITS;
            if held_bits >= 64 {
                put(j, held as u64);
                (held, held_bits, j) = (held >> 64, held_bits - 64, j + 1);
            }
        }
        // 52·D > 64·(k − 1) bits were read, so limb k − 1 is written here
        // if not above.
        put(j, held as u64);
        debug_assert_eq!(borrow, 0);
    }

    /// Fused Montgomery product `out = a·b·R⁻¹ mod n` of two reduced
    /// `k`-limb operands, with `t` as `2k + 1` limbs of scratch.
    ///
    /// One pass per limb of `b` adds `a·bᵢ` and the multiple `m·n` that
    /// clears the window's low limb, each on its own carry chain (finely
    /// integrated operand scanning, `mac2`). The window slides up one limb
    /// per pass instead of shifting `t` down, so after `k` passes the
    /// product sits in `t[k..2k]` with its overflow bit in `t[2k]`; it is
    /// below `2n` throughout, so one conditional subtraction finishes.
    fn mont_mul(&self, out: &mut [u64], a: &[u64], b: &[u64], t: &mut [u64]) {
        let k = self.k();
        assert!(a.len() == k && b.len() == k && t.len() == 2 * k + 1);
        t.fill(0);
        for (i, &bi) in b.iter().enumerate() {
            let (window, top) = t[i..i + k + 2].split_at_mut(k);
            let m = window[0]
                .wrapping_add(a[0].wrapping_mul(bi))
                .wrapping_mul(self.n_prime);
            let (carry_ab, carry_mn) = mac2(window, bi, a, 0, m, &self.n, 0);
            // top[0] holds at most the previous pass's overflow bit and
            // top[1] is still zero: the running value stays below 2n·R.
            let (sum, over_ab) = top[0].overflowing_add(carry_ab);
            let (sum, over_mn) = sum.overflowing_add(carry_mn);
            top[0] = sum;
            top[1] = u64::from(over_ab | over_mn);
        }
        self.reduce_once(out, &t[k..2 * k], t[2 * k]);
    }

    /// Montgomery square `out = a²·R⁻¹ mod n`; limb-for-limb equal to
    /// `mont_mul(out, a, a, t)` at three quarters of the multiplications:
    /// each off-diagonal product `aᵢ·aⱼ` is computed once, the sum is
    /// doubled while the diagonal squares are added, and `redc` reduces the
    /// `2k`-limb square.
    fn mont_sqr(&self, out: &mut [u64], a: &[u64], t: &mut [u64]) {
        let k = self.k();
        assert!(a.len() == k && t.len() == 2 * k + 1);
        t.fill(0);
        // Row i adds aᵢ·a[i+1..] starting at limb 2i + 1. Rows go two at a
        // time, so that the stretch of limbs both reach runs on two carry
        // chains like every other inner loop here.
        let mut i = 0;
        while i + 3 < k {
            let (a0, a1) = (a[i], a[i + 1]);
            // Limbs 2i + 1 and 2i + 2 see row i alone.
            let (lo, carry0) = a0.carrying_mul_add(a[i + 1], t[2 * i + 1], 0);
            t[2 * i + 1] = lo;
            let (lo, carry0) = a0.carrying_mul_add(a[i + 2], t[2 * i + 2], carry0);
            t[2 * i + 2] = lo;
            let (carry0, carry1) = mac2(
                &mut t[2 * i + 3..i + k],
                a0,
                &a[i + 3..],
                carry0,
                a1,
                &a[i + 2..k - 1],
                0,
            );
            // Limb i + k takes row i's carry and row i + 1's last product,
            // limb i + k + 1 that product's carry; no row has reached
            // either yet.
            (t[i + k], t[i + k + 1]) = a1.carrying_mul_add(a[k - 1], carry0, carry1);
            i += 2;
        }
        for (i, &ai) in a.iter().enumerate().skip(i) {
            // The last, short rows, one at a time; the carry lands on limb
            // i + k, again untouched.
            let (row, rest) = t[2 * i + 1..].split_at_mut(k - i - 1);
            let mut carry = 0u64;
            for (w, &aj) in row.iter_mut().zip(&a[i + 1..]) {
                (*w, carry) = ai.carrying_mul_add(aj, *w, carry);
            }
            rest[0] = carry;
        }
        let (mut shifted_out, mut carry) = (0u64, false);
        for (pair, &ai) in t[..2 * k].chunks_exact_mut(2).zip(a) {
            let (sq_lo, sq_hi) = ai.carrying_mul(ai, 0);
            let lo = (pair[0] << 1) | shifted_out;
            let hi = (pair[1] << 1) | (pair[0] >> 63);
            shifted_out = pair[1] >> 63;
            (pair[0], carry) = lo.carrying_add(sq_lo, carry);
            (pair[1], carry) = hi.carrying_add(sq_hi, carry);
        }
        // a² < 2^(128k): nothing is shifted or carried out of 2k limbs.
        debug_assert!(shifted_out == 0 && !carry);
        self.redc(out, t);
    }

    /// Montgomery reduction `out = t·R⁻¹ mod n` of the `2k`-limb value in
    /// `t[..2k]`, which must be below `n·R` so that the result is below
    /// `2n` before the final subtraction.
    ///
    /// Row i adds the multiple `mᵢ·n` that clears limb i. Rows go two at
    /// a time — `m` of the second is known once the first has touched two
    /// limbs — so the inner loop carries two independent chains.
    fn redc(&self, out: &mut [u64], t: &mut [u64]) {
        let k = self.k();
        let n = &self.n[..];
        assert!(t.len() == 2 * k + 1);
        // The carry out of the limb above the rows done so far.
        let mut carry = false;
        let mut i = 0;
        if k % 2 == 1 {
            // An odd row count: the first row goes alone.
            let (window, top) = t.split_at_mut(k);
            let m = window[0].wrapping_mul(self.n_prime);
            let mut carry_mn = 0u64;
            for (w, &nj) in window.iter_mut().zip(n) {
                (*w, carry_mn) = m.carrying_mul_add(nj, *w, carry_mn);
            }
            (top[0], carry) = top[0].overflowing_add(carry_mn);
            i = 1;
        }
        while i < k {
            let (window, top) = t[i..].split_at_mut(k);
            let m0 = window[0].wrapping_mul(self.n_prime);
            let (_, carry0) = m0.carrying_mul_add(n[0], window[0], 0);
            let (second, carry0) = m0.carrying_mul_add(n[1], window[1], carry0);
            let m1 = second.wrapping_mul(self.n_prime);
            let (_, carry1) = m1.carrying_mul_add(n[0], second, 0);
            let (carry0, carry1) = mac2(
                &mut window[2..],
                m0,
                &n[2..],
                carry0,
                m1,
                &n[1..k - 1],
                carry1,
            );
            // Limb i + k: row i's carry, the carry from below, and row
            // i + 1's last product, whose own carry goes one limb up.
            let (sum, over) = top[0].carrying_add(carry0, carry);
            let (lo, hi) = m1.carrying_mul_add(n[k - 1], sum, carry1);
            top[0] = lo;
            (top[1], carry) = top[1].carrying_add(hi, over);
            i += 2;
        }
        self.reduce_once(out, &t[k..2 * k], u64::from(carry));
    }

    /// Writes `top·R + value`, known to be below `2n`, reduced into `[0, n)`.
    fn reduce_once(&self, out: &mut [u64], value: &[u64], top: u64) {
        let below_n = top == 0
            && value
                .iter()
                .rev()
                .zip(self.n.iter().rev())
                .find_map(|(v, n)| (v != n).then_some(v < n))
                .unwrap_or(false);
        if below_n {
            out.copy_from_slice(value);
            return;
        }
        let mut borrow = false;
        for ((o, &v), &nj) in out.iter_mut().zip(value).zip(&self.n) {
            (*o, borrow) = v.borrowing_sub(nj, borrow);
        }
        debug_assert_eq!(u64::from(borrow), top);
    }

    /// `a·b mod n` for arbitrary `a`, `b` — two kernel products (`a` up by
    /// `R²` into Montgomery form, then times `b`, which takes the `R` back
    /// out) in place of a schoolbook product and a Knuth division; equal
    /// to [`BigUint::mul_mod`] under this modulus.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let mut acc = Accumulator::load(self, a);
        acc.mul(&self.residue(b));
        let mut out = vec![0; self.k()];
        acc.store(&mut out);
        BigUint::from_limbs(out)
    }

    /// `base^exponent mod n`.
    ///
    /// Uses 4-bit fixed windows (left-to-right) for long exponents and
    /// plain square-and-multiply for short ones.
    pub fn pow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        crate::stats::record_modexp();
        crate::stats::timed(Primitive::MontPow, || {
            let mut acc = Accumulator::one(self);
            if exponent.bit_len() <= WINDOW_MIN_BITS {
                self.pow_binary_m(&mut acc, base, exponent);
            } else {
                self.pow_windowed_m(&mut acc, base, exponent);
            }
            acc.finish()
        })
    }

    /// Square-and-multiply into `acc`.
    fn pow_binary_m(&self, acc: &mut Accumulator<'_>, base: &BigUint, exponent: &BigUint) {
        let mut base_m = vec![0; self.k()];
        Accumulator::load(self, base).fill_powers(&mut base_m);
        for i in (0..exponent.bit_len()).rev() {
            acc.square();
            if exponent.bit(i) {
                acc.mul(&base_m);
            }
        }
    }

    /// Fixed 4-bit-window exponentiation into `acc`: four squarings and at
    /// most one table multiplication per window.
    fn pow_windowed_m(&self, acc: &mut Accumulator<'_>, base: &BigUint, exponent: &BigUint) {
        let k = self.k();
        let mut powers = vec![0; WINDOW_ROWS * k];
        Accumulator::load(self, base).fill_powers(&mut powers);
        let windows = exponent.bit_len().div_ceil(4);
        for d in (0..windows).rev() {
            if d != windows - 1 {
                for _ in 0..4 {
                    acc.square();
                }
            }
            let v = exponent.window4(d);
            if v != 0 {
                acc.mul(&powers[(v - 1) * k..v * k]);
            }
        }
    }

    /// Straus/Shamir simultaneous multi-exponentiation:
    /// `∏ baseᵢ^expᵢ mod n` with one shared squaring chain.
    ///
    /// Cost is `max(bits)` squarings plus one multiplication per nonzero
    /// 4-bit exponent window — for `k` exponents of similar width this is
    /// nearly `k`× cheaper than `k` separate exponentiations. The canonical
    /// use is signature-style checks of the form `g^s · y^{-e} == r`.
    pub fn multi_pow(&self, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        crate::stats::record_multi_pow();
        crate::stats::timed(Primitive::MultiPow, || self.straus(pairs))
    }

    fn straus(&self, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        // Coalesce repeated bases first: `b^{e₁} · b^{e₂} = b^{e₁+e₂}`.
        // Batched signature checks repeat a handful of public keys across
        // many items, so merging saves both the per-base table build and
        // that base's window multiplications — the comparison scan is a few
        // word-compares per pair, noise next to one modular multiply.
        let mut merged: Vec<(&BigUint, BigUint)> = Vec::with_capacity(pairs.len());
        for &(base, e) in pairs {
            match merged.iter_mut().find(|(b, _)| *b == base) {
                Some((_, acc)) => *acc = acc.add(e),
                None => merged.push((base, e.clone())),
            }
        }
        let max_bits = merged.iter().map(|(_, e)| e.bit_len()).max().unwrap_or(0);
        if max_bits == 0 {
            return BigUint::one();
        }
        let mut acc = Accumulator::one(self);
        // One table for all bases: base i's powers 1..=15 are rows
        // 15·i ..= 15·i + 14.
        let k = self.k();
        let mut tables = vec![0; merged.len() * WINDOW_ROWS * k];
        for ((base, _), rows) in merged.iter().zip(tables.chunks_exact_mut(WINDOW_ROWS * k)) {
            Accumulator::load(self, base).fill_powers(rows);
        }
        let windows = max_bits.div_ceil(4);
        for d in (0..windows).rev() {
            if d != windows - 1 {
                for _ in 0..4 {
                    acc.square();
                }
            }
            for (i, (_, e)) in merged.iter().enumerate() {
                let v = e.window4(d);
                if v != 0 {
                    let row = i * WINDOW_ROWS + v - 1;
                    acc.mul(&tables[row * k..(row + 1) * k]);
                }
            }
        }
        acc.finish()
    }
}

/// The working set of one exponentiation, allocated once per call: the
/// running product, the buffer the next product is written into (the two
/// swap after every step), and the kernel's product scratch. It is a local
/// of the exponentiation that builds it and is dropped when that returns,
/// so nothing in it is shared between calls or threads, and it cannot
/// outlive the tables it multiplies by.
///
/// Its products are the only place the kernels differ: every algorithm
/// above it is one code path that squares, multiplies by `k`-limb table
/// rows, stores rows and finishes.
struct Accumulator<'a> {
    ctx: &'a Montgomery,
    cur: Vec<u64>,
    next: Vec<u64>,
    /// The portable kernel's `2k + 1`-limb product scratch (the IFMA
    /// kernel needs none).
    t: Vec<u64>,
}

impl<'a> Accumulator<'a> {
    /// Starts from the Montgomery form of 1.
    fn one(ctx: &'a Montgomery) -> Self {
        let t_len = match ctx.kernel {
            Kernel::Portable => 2 * ctx.k() + 1,
            Kernel::Ifma52 { .. } => 0,
        };
        Accumulator {
            ctx,
            cur: ctx.one_m.clone(),
            next: vec![0; ctx.residue_len()],
            t: vec![0; t_len],
        }
    }

    /// Starts from the Montgomery form of `x`.
    fn load(ctx: &'a Montgomery, x: &BigUint) -> Self {
        let mut acc = Self::one(ctx);
        ctx.to_mont(&mut acc.cur, x, &mut acc.t);
        acc
    }

    fn square(&mut self) {
        match self.ctx.kernel {
            Kernel::Portable => self.ctx.mont_sqr(&mut self.next, &self.cur, &mut self.t),
            Kernel::Ifma52 { .. } => {
                self.ctx
                    .amm(&mut self.next, &self.cur, Operand::Digits(&self.cur))
            }
        }
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// Multiplies by `row`, a fully reduced `k`-limb residue in Montgomery
    /// form.
    fn mul(&mut self, row: &[u64]) {
        match self.ctx.kernel {
            Kernel::Portable => self
                .ctx
                .mont_mul(&mut self.next, &self.cur, row, &mut self.t),
            Kernel::Ifma52 { .. } => self.ctx.amm(&mut self.next, &self.cur, Operand::Limbs(row)),
        }
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// Writes the running product, fully reduced, into the `k` limbs of
    /// `row`.
    fn store(&self, row: &mut [u64]) {
        match self.ctx.kernel {
            Kernel::Portable => row.copy_from_slice(&self.cur),
            Kernel::Ifma52 { .. } => self.ctx.pack_reduced(&self.cur, row),
        }
    }

    /// Fills `rows` (`k` limbs each, row-major) with the Montgomery forms
    /// of the running product `x` and its powers `x², x³, …`, one per row;
    /// ends holding the last.
    fn fill_powers(&mut self, rows: &mut [u64]) {
        let k = self.ctx.k();
        self.store(&mut rows[..k]);
        for v in 1..rows.len() / k {
            let (done, todo) = rows.split_at_mut(v * k);
            self.mul(&done[..k]);
            self.store(&mut todo[..k]);
        }
    }

    /// Converts the product out of Montgomery form: `REDC(x·R) = x`.
    fn finish(mut self) -> BigUint {
        let k = self.ctx.k();
        match self.ctx.kernel {
            Kernel::Portable => {
                self.t[..k].copy_from_slice(&self.cur);
                self.t[k..].fill(0);
                self.ctx.redc(&mut self.next, &mut self.t);
                BigUint::from_limbs(self.next)
            }
            Kernel::Ifma52 { .. } => {
                // x·R·1·R⁻¹ lands in [0, n]; the reduction maps n to 0.
                self.ctx
                    .amm(&mut self.next, &self.cur, Operand::Limbs(&[1]));
                self.ctx.pack_reduced(&self.next, &mut self.cur[..k]);
                self.cur.truncate(k);
                BigUint::from_limbs(self.cur)
            }
        }
    }
}

/// Almost-Montgomery multiplication on 52-bit digits with AVX-512 IFMA,
/// after Gueron and Krasnov, "Accelerating Big Integer Arithmetic Using
/// Intel IFMA Extensions" (ARITH 2016).
///
/// `vpmadd52luq` / `vpmadd52huq` add the low / high 52 bits of eight
/// 52 × 52-bit products to eight 64-bit lanes. The running sum is `V`
/// vectors of digits. One pass per digit `bᵢ` of the multiplier adds the
/// low halves of `a·bᵢ` and `m·n` (`m` chosen to clear digit 0), drops
/// digit 0 by moving every lane down one (`valignq`), then adds the high
/// halves, which belong one digit up — where the lanes now are. A pass adds
/// under 2^54 to a lane, so carries wait in the lanes' top 12 bits until
/// the end, when a vector loop normalises the digits back to 52 bits.
/// Digit 0 is kept exactly in a scalar register, so `m` and the carry out
/// of digit 0 need no lane extract of a finished sum.
///
/// Everything here is safe code: inside a `#[target_feature]` function the
/// value intrinsics are safe to call, and words enter and leave the vectors
/// through `_mm512_set_epi64` and extracts, so no pointer intrinsic is used.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::{Operand, DIGIT_BITS, DIGIT_MASK, IFMA_MAX_DIGITS};
    use std::arch::x86_64::{
        __m512i, _mm256_extract_epi64, _mm512_add_epi64, _mm512_alignr_epi64, _mm512_and_si512,
        _mm512_castsi512_si128, _mm512_extracti64x4_epi64, _mm512_madd52hi_epu64,
        _mm512_madd52lo_epu64, _mm512_mask_set1_epi64, _mm512_set1_epi64, _mm512_set_epi64,
        _mm512_setzero_si512, _mm512_srli_epi64, _mm512_test_epi64_mask, _mm_cvtsi128_si64,
    };

    /// `out = (a·b + m·n) / R` for the `m < R` that makes it exact, `R =
    /// 2^(52·digits)`: `a·b·R⁻¹ mod n` up to multiples of `n`, below `2n`
    /// when `a, b < 2n` and `4n < R`. `a`, `n` and `out` are `8·V` digits,
    /// the top `8·V − digits` zero; `k0 = −n⁻¹ mod 2^52`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn amm(
        out: &mut [u64],
        a: &[u64],
        b: Operand<'_>,
        n: &[u64],
        k0: u64,
        digits: usize,
    ) {
        debug_assert!(a.len() == n.len() && out.len() == n.len());
        // One instantiation per width, so that the vectors of each stay
        // in registers.
        macro_rules! by_vectors {
            ($($v:literal)*) => {
                match n.len() / 8 {
                    $($v => amm_v::<$v>(out, a, b, n, k0, digits),)*
                    _ => unreachable!("IFMA residues are 1 to {} vectors", IFMA_MAX_DIGITS / 8),
                }
            };
        }
        by_vectors!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn amm_v<const V: usize>(
        out: &mut [u64],
        a: &[u64],
        b: Operand<'_>,
        n: &[u64],
        k0: u64,
        digits: usize,
    ) {
        let zero = _mm512_setzero_si512();
        let (mut av, mut nv, mut acc) = ([zero; V], [zero; V], [zero; V]);
        for (j, (av, nv)) in av.iter_mut().zip(&mut nv).enumerate() {
            (*av, *nv) = (load(&a[8 * j..]), load(&n[8 * j..]));
        }
        // Digit 0 of the running sum, exactly; its lane is left stale.
        let mut acc0 = 0u64;
        for i in 0..digits {
            let bi = b.digit(i);
            // acc0 + a₀·bᵢ + m·n₀ ≡ 0 (mod 2^52); the quotient, high
            // halves included, is what digit 0 carries into digit 1.
            let t = u128::from(acc0) + u128::from(a[0]) * u128::from(bi);
            let m = (t as u64).wrapping_mul(k0) & DIGIT_MASK;
            let carry = ((t + u128::from(m) * u128::from(n[0])) >> DIGIT_BITS) as u64;
            let (bv, mv) = (_mm512_set1_epi64(bi as i64), _mm512_set1_epi64(m as i64));
            for ((x, &a), &n) in acc.iter_mut().zip(&av).zip(&nv) {
                *x = _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(*x, a, bv), n, mv);
            }
            for j in 0..V {
                let above = if j + 1 < V { acc[j + 1] } else { zero };
                acc[j] = _mm512_alignr_epi64::<1>(above, acc[j]);
            }
            acc0 = carry + _mm_cvtsi128_si64(_mm512_castsi512_si128(acc[0])) as u64;
            for ((x, &a), &n) in acc.iter_mut().zip(&av).zip(&nv) {
                *x = _mm512_madd52hi_epu64(_mm512_madd52hi_epu64(*x, a, bv), n, mv);
            }
        }
        acc[0] = _mm512_mask_set1_epi64(acc[0], 1, acc0 as i64);
        // Each digit keeps 52 bits and hands the rest one digit up, until
        // none overflows (two passes unless a carry ripples). The sum is
        // below 2n < R, so nothing leaves the top digit.
        let mask = _mm512_set1_epi64(DIGIT_MASK as i64);
        loop {
            let (mut below, mut overflow) = (zero, 0);
            for x in &mut acc {
                let carries = _mm512_srli_epi64::<52>(*x);
                overflow |= _mm512_test_epi64_mask(carries, carries);
                let up = _mm512_alignr_epi64::<7>(carries, below);
                *x = _mm512_add_epi64(_mm512_and_si512(*x, mask), up);
                below = carries;
            }
            if overflow == 0 {
                break;
            }
        }
        for (j, &x) in acc.iter().enumerate() {
            unload(x, &mut out[8 * j..]);
        }
    }

    /// The eight words at the start of `w`, `w[0]` in the lowest lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(w: &[u64]) -> __m512i {
        let w: &[u64; 8] = w[..8].try_into().expect("a whole vector");
        let w = w.map(|x| x as i64);
        _mm512_set_epi64(w[7], w[6], w[5], w[4], w[3], w[2], w[1], w[0])
    }

    /// Writes the lanes of `v` to the first eight words of `w`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn unload(v: __m512i, w: &mut [u64]) {
        let (low, high) = (
            _mm512_extracti64x4_epi64::<0>(v),
            _mm512_extracti64x4_epi64::<1>(v),
        );
        w[..8].copy_from_slice(
            &[
                _mm256_extract_epi64::<0>(low),
                _mm256_extract_epi64::<1>(low),
                _mm256_extract_epi64::<2>(low),
                _mm256_extract_epi64::<3>(low),
                _mm256_extract_epi64::<0>(high),
                _mm256_extract_epi64::<1>(high),
                _mm256_extract_epi64::<2>(high),
                _mm256_extract_epi64::<3>(high),
            ]
            .map(|x| x as u64),
        );
    }
}

/// A fixed-base precomputation table (Brickell–Gordon–McCurley–Wilson
/// radix-16 variant).
///
/// Stores `base^(v · 16^d)` in Montgomery form for every 4-bit digit
/// position `d` and digit value `v ∈ 1..=15`, so an exponentiation by any
/// exponent up to `max_bits` becomes one table multiplication per nonzero
/// digit — **no squarings at all**. For a 2048-bit group that is ~480
/// multiplications instead of ~3070, at a one-time build cost of ~15
/// multiplications per digit. The table is one allocation of
/// `digits · 15 · k` limbs, immutable once built: 1.9 MiB for the 2047-bit
/// generator table of the 2048-bit group, 240 KiB for a per-key table
/// sized to 256-bit challenges.
#[derive(Clone, Debug)]
pub struct FixedBaseTable {
    digits: usize,
    /// Row-major, `k` limbs per row:
    /// row `d * 15 + (v - 1)` is `base^(v · 16^d)` (Montgomery form).
    rows: Vec<u64>,
}

impl FixedBaseTable {
    /// Precomputes the table for exponents up to `max_exp_bits` bits.
    pub fn build(ctx: &Montgomery, base: &BigUint, max_exp_bits: usize) -> Self {
        crate::stats::record_table_build();
        let k = ctx.k();
        let digits = max_exp_bits.div_ceil(4).max(1);
        let mut rows = vec![0; digits * WINDOW_ROWS * k];
        // Holds base^(16^d) on entry to digit d's rows.
        let mut acc = Accumulator::load(ctx, base);
        for digit in rows.chunks_exact_mut(WINDOW_ROWS * k) {
            acc.fill_powers(digit);
            // base^(16^(d+1)) = base^(15·16^d) · base^(16^d).
            acc.mul(&digit[..k]);
        }
        FixedBaseTable { digits, rows }
    }

    /// The widest exponent this table covers, in bits.
    pub fn max_bits(&self) -> usize {
        self.digits * 4
    }

    /// `base^exponent mod n`, or `None` when the exponent is wider than
    /// the table (callers fall back to [`Montgomery::pow`]). `ctx` must be
    /// the context the table was built with.
    pub fn pow(&self, ctx: &Montgomery, exponent: &BigUint) -> Option<BigUint> {
        if exponent.bit_len() > self.max_bits() {
            return None;
        }
        crate::stats::record_table_pow();
        crate::stats::timed(Primitive::TablePow, || {
            let k = ctx.k();
            let mut acc = Accumulator::one(ctx);
            for d in 0..self.digits {
                let v = exponent.window4(d);
                if v != 0 {
                    let row = d * WINDOW_ROWS + v - 1;
                    acc.mul(&self.rows[row * k..(row + 1) * k]);
                }
            }
            Some(acc.finish())
        })
    }
}

/// The Jacobi symbol `(a/n)` for odd positive `n`, via the binary
/// reciprocity algorithm — no exponentiation.
///
/// For an odd prime `n` this is the Legendre symbol: `1` when `a` is a
/// nonzero quadratic residue, `-1` when a non-residue, `0` when `n`
/// divides `a`. In a safe-prime group `p = 2q + 1` the order-`q` subgroup
/// is exactly the set of quadratic residues, so `(x/p) == 1` decides
/// subgroup membership ~80× faster than the Euler-criterion
/// exponentiation `x^q mod p`.
///
/// # Panics
///
/// Panics if `n` is even or zero.
pub fn jacobi(a: &BigUint, n: &BigUint) -> i32 {
    assert!(!n.is_even() && !n.is_zero(), "Jacobi symbol needs odd n");
    crate::stats::timed(Primitive::Jacobi, || jacobi_binary(a, n))
}

fn jacobi_binary(a: &BigUint, n: &BigUint) -> i32 {
    // Binary algorithm: one initial reduction, then only shifts, compares
    // and subtractions on two buffers that are updated in place and
    // swapped — no long division and no allocation in the loop. Each round
    // strips at least one bit from `a`.
    let mut a = a.rem(n);
    let mut n = n.clone();
    let mut t = 1i32;
    while !a.is_zero() {
        let twos = a.trailing_zeros();
        a.shr_assign(twos);
        // (2/n) = -1 iff n ≡ ±3 (mod 8), once per factor of two.
        if twos % 2 == 1 && matches!(n.low_u64() % 8, 3 | 5) {
            t = -t;
        }
        if a < n {
            // Quadratic reciprocity flips the sign iff both ≡ 3 (mod 4).
            std::mem::swap(&mut a, &mut n);
            if a.low_u64() % 4 == 3 && n.low_u64() % 4 == 3 {
                t = -t;
            }
        }
        // Both odd and a ≥ n: (a/n) = ((a−n)/n), and the difference is
        // even, so the next round strips its factors of two.
        a.sub_assign(&n);
    }
    if n == BigUint::one() {
        t
    } else {
        0
    }
}

/// `a - b` on (sign, magnitude) pairs: returns sign-magnitude of the result.
fn signed_sub(a: &(bool, BigUint), b: &(bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - b with same signs: magnitude subtraction.
        (false, false) => {
            if a.1 >= b.1 {
                (false, a.1.sub(&b.1))
            } else {
                (true, b.1.sub(&a.1))
            }
        }
        (true, true) => {
            if b.1 >= a.1 {
                (false, b.1.sub(&a.1))
            } else {
                (true, a.1.sub(&b.1))
            }
        }
        // (+a) - (-b) = a + b ; (-a) - (+b) = -(a + b)
        (false, true) => (false, a.1.add(&b.1)),
        (true, false) => (true, a.1.add(&b.1)),
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        non_eq => return non_eq,
                    }
                }
                Ordering::Equal
            }
            non_eq => non_eq,
        }
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn b(hex: &str) -> BigUint {
        BigUint::from_hex(hex).unwrap()
    }

    /// The kernels this host can run. The portable one always; IFMA where
    /// detected, with a note in the test output where it is not, so a log
    /// shows which differential checks were real.
    fn kernels() -> Vec<&'static str> {
        let mut names = vec!["portable"];
        if kernel() == "ifma52" {
            names.push("ifma52");
        } else {
            println!("note: this CPU lacks AVX-512 IFMA; only the portable kernel is tested");
        }
        names
    }

    /// A context for `n` on every kernel this host can run.
    fn contexts(n: &BigUint) -> Vec<Montgomery> {
        kernels()
            .into_iter()
            .map(|name| Montgomery::on_kernel(n, name).expect("kernel listed as runnable"))
            .collect()
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(!BigUint::one().is_zero());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
        assert_eq!(BigUint::from_u64(0), BigUint::zero());
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
    }

    #[test]
    fn bytes_roundtrip() {
        let n = b("0123456789abcdef0011223344556677");
        assert_eq!(BigUint::from_bytes_be(&n.to_bytes_be()), n);
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 0]), BigUint::zero());
        let padded = n.to_bytes_be_padded(32);
        assert_eq!(padded.len(), 32);
        assert_eq!(BigUint::from_bytes_be(&padded), n);
    }

    #[test]
    #[should_panic(expected = "buffer is 4")]
    fn padded_too_small_panics() {
        b("aabbccddee").to_bytes_be_padded(4);
    }

    #[test]
    fn hex_roundtrip() {
        for hex in [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef01",
            "100000000000000000000000001",
        ] {
            assert_eq!(b(hex).to_hex(), hex);
        }
        assert!(BigUint::from_hex("zz").is_none());
    }

    #[test]
    fn add_with_carry_chain() {
        let a = b("ffffffffffffffffffffffffffffffff");
        assert_eq!(
            a.add(&BigUint::one()),
            b("100000000000000000000000000000000")
        );
        assert_eq!(BigUint::zero().add(&a), a);
    }

    #[test]
    fn sub_with_borrow_chain() {
        let a = b("100000000000000000000000000000000");
        assert_eq!(
            a.sub(&BigUint::one()),
            b("ffffffffffffffffffffffffffffffff")
        );
        assert_eq!(a.checked_sub(&a.add(&BigUint::one())), None);
        assert_eq!(a.sub(&a), BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        BigUint::one().sub(&BigUint::from_u64(2));
    }

    #[test]
    fn mul_known_values() {
        assert_eq!(
            b("ffffffffffffffff").mul(&b("ffffffffffffffff")),
            b("fffffffffffffffe0000000000000001")
        );
        assert_eq!(b("abc").mul(&BigUint::zero()), BigUint::zero());
        assert_eq!(b("abc").mul(&BigUint::one()), b("abc"));
    }

    #[test]
    fn shifts() {
        let a = b("1");
        assert_eq!(a.shl(64), b("10000000000000000"));
        assert_eq!(a.shl(65), b("20000000000000000"));
        assert_eq!(b("20000000000000000").shr(65), b("1"));
        assert_eq!(b("ff").shr(200), BigUint::zero());
        assert_eq!(b("ff00").shr(8), b("ff"));
    }

    #[test]
    fn div_rem_small() {
        let (q, r) = b("64").div_rem(&b("a")); // 100 / 10
        assert_eq!(q, b("a"));
        assert_eq!(r, BigUint::zero());
        let (q, r) = b("65").div_rem(&b("a"));
        assert_eq!(q, b("a"));
        assert_eq!(r, BigUint::one());
    }

    #[test]
    fn div_rem_dividend_smaller() {
        let (q, r) = b("5").div_rem(&b("1000000000000000000000000"));
        assert_eq!(q, BigUint::zero());
        assert_eq!(r, b("5"));
    }

    #[test]
    fn div_rem_multi_limb_known() {
        // Computed with an independent tool:
        // 0x123456789abcdef0fedcba9876543210ffeeddccbbaa9988 /
        // 0x1000000000000000f = q: 0x123456789abcdeeffc...; verify via identity.
        let u = b("123456789abcdef0fedcba9876543210ffeeddccbbaa9988");
        let v = b("1000000000000000f");
        let (q, r) = u.div_rem(&v);
        assert!(r < v);
        assert_eq!(q.mul(&v).add(&r), u);
    }

    #[test]
    fn div_rem_triggers_correction_step() {
        // Crafted so that qhat estimation overshoots (divisor with small
        // second limb, dividend near the boundary).
        let u = b("80000000000000000000000000000000000000000000000000000000");
        let v = b("8000000000000000000000000000000000000001");
        let (q, r) = u.div_rem(&v);
        assert!(r < v);
        assert_eq!(q.mul(&v).add(&r), u);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        b("5").div_rem(&BigUint::zero());
    }

    #[test]
    fn pow_mod_known_values() {
        let p = b("fffffffb"); // prime 2^32 - 5
                               // Fermat: a^(p-1) = 1 mod p
        let a = b("deadbeef");
        assert_eq!(a.pow_mod(&p.sub(&BigUint::one()), &p), BigUint::one());
        assert_eq!(a.pow_mod(&BigUint::zero(), &p), BigUint::one());
        assert_eq!(a.pow_mod(&BigUint::one(), &p), a.rem(&p));
        assert_eq!(a.pow_mod(&b("10"), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn inv_mod_known_values() {
        let p = b("fffffffb");
        let a = b("12345");
        let inv = a.inv_mod(&p).unwrap();
        assert_eq!(a.mul_mod(&inv, &p), BigUint::one());
        // Non-invertible: gcd(6, 9) = 3.
        assert_eq!(BigUint::from_u64(6).inv_mod(&BigUint::from_u64(9)), None);
        assert_eq!(BigUint::zero().inv_mod(&p), None);
    }

    #[test]
    fn add_sub_mod() {
        let m = b("11"); // 17
        let a = b("10"); // 16
        let c = a.add_mod(&a, &m); // 32 mod 17 = 15
        assert_eq!(c, b("f"));
        assert_eq!(b("3").sub_mod(&b("5"), &m), b("f")); // 3-5 mod 17 = 15
        assert_eq!(b("5").sub_mod(&b("3"), &m), b("2"));
    }

    #[test]
    fn miller_rabin_on_known_primes_and_composites() {
        let mut rng = StdRng::seed_from_u64(7);
        for p in [2u64, 3, 5, 17, 101, 65537, 4294967291, 4294967311] {
            assert!(
                BigUint::from_u64(p).is_probable_prime(16, &mut rng),
                "{p} should be prime"
            );
        }
        for c in [1u64, 4, 100, 65539 * 3, 4294967297, 561, 41041] {
            // 561 and 41041 are Carmichael numbers.
            assert!(
                !BigUint::from_u64(c).is_probable_prime(16, &mut rng),
                "{c} should be composite"
            );
        }
        // A known 256-bit prime (secp256k1 field prime).
        let p256 = b("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
        assert!(p256.is_probable_prime(8, &mut rng));
        assert!(!p256
            .add(&BigUint::from_u64(2))
            .is_probable_prime(8, &mut rng));
    }

    #[test]
    fn montgomery_matches_reference_on_odd_moduli() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..40 {
            // Random odd multi-limb modulus (2..=5 limbs).
            let limbs = 2 + (rng.gen::<u8>() % 4) as usize;
            let mut m_bytes = vec![0u8; limbs * 8];
            rng.fill(&mut m_bytes[..]);
            m_bytes[0] |= 0x80; // keep it multi-limb
            let last = m_bytes.len() - 1;
            m_bytes[last] |= 1; // odd
            let m = BigUint::from_bytes_be(&m_bytes);
            let base = BigUint::random_below(&mut rng, &m);
            let mut e_bytes = vec![0u8; 16];
            rng.fill(&mut e_bytes[..]);
            let e = BigUint::from_bytes_be(&e_bytes);
            assert_eq!(
                base.pow_mod(&e, &m),
                base.pow_mod_reference(&e, &m),
                "base={base} e={e} m={m}"
            );
        }
    }

    #[test]
    fn montgomery_edge_exponents() {
        let m = b("ffffffffffffffffffffffffffffff61"); // odd, 2 limbs
        let a = b("123456789abcdef0");
        assert_eq!(a.pow_mod(&BigUint::zero(), &m), BigUint::one());
        assert_eq!(a.pow_mod(&BigUint::one(), &m), a.rem(&m));
        assert_eq!(BigUint::zero().pow_mod(&b("5"), &m), BigUint::zero());
        assert_eq!(m.pow_mod(&b("3"), &m), BigUint::zero());
        // base larger than modulus reduces first.
        let big = m.mul(&b("7")).add(&b("2"));
        assert_eq!(big.pow_mod(&b("9"), &m), b("2").pow_mod(&b("9"), &m));
    }

    #[test]
    fn even_modulus_falls_back_correctly() {
        let m = b("10000000000000000000000000000000"); // even, 2^124
        let a = b("3");
        assert_eq!(a.pow_mod(&b("40"), &m), a.pow_mod_reference(&b("40"), &m));
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(42);
        let bound = b("100000000000000000001");
        for _ in 0..200 {
            let x = BigUint::random_below(&mut rng, &bound);
            assert!(x < bound);
        }
        // Tiny bound: always zero.
        for _ in 0..10 {
            assert!(BigUint::random_below(&mut rng, &BigUint::one()).is_zero());
        }
    }

    #[test]
    fn ordering() {
        assert!(b("100") > b("ff"));
        assert!(b("ff") < b("100"));
        assert_eq!(b("ff").cmp(&b("ff")), Ordering::Equal);
        assert!(b("10000000000000000") > b("ffffffffffffffff"));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", b("ff")), "0xff");
        assert_eq!(format!("{:?}", b("ff")), "BigUint(0xff)");
        assert_eq!(format!("{}", BigUint::zero()), "0x0");
    }

    fn random_odd_modulus(rng: &mut StdRng, limbs: usize) -> BigUint {
        let mut m_bytes = vec![0u8; limbs * 8];
        rng.fill(&mut m_bytes[..]);
        m_bytes[0] |= 0x80; // keep the limb count
        let last = m_bytes.len() - 1;
        m_bytes[last] |= 1; // odd
        BigUint::from_bytes_be(&m_bytes)
    }

    #[test]
    fn cached_context_matches_oneshot_pow_mod() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..20 {
            let limbs = 2 + (rng.gen::<u8>() % 3) as usize;
            let m = random_odd_modulus(&mut rng, limbs);
            let ctx = Montgomery::new(&m);
            let base = BigUint::random_below(&mut rng, &m);
            let e_limbs = 1 + (rng.gen::<u8>() % 3) as usize;
            let e = random_odd_modulus(&mut rng, e_limbs);
            assert_eq!(ctx.pow(&base, &e), base.pow_mod(&e, &m));
            assert_eq!(ctx.pow(&base, &BigUint::zero()), BigUint::one());
            // Base larger than the modulus reduces first.
            let big = base.add(&m);
            assert_eq!(ctx.pow(&big, &e), base.pow_mod(&e, &m));
        }
    }

    #[test]
    fn windowed_and_binary_paths_agree() {
        let mut rng = StdRng::seed_from_u64(22);
        let m = random_odd_modulus(&mut rng, 4);
        let base = BigUint::random_below(&mut rng, &m);
        for ctx in contexts(&m) {
            // Exponents straddling WINDOW_MIN_BITS take different code paths.
            for bits in [1usize, 17, 47, 48, 49, 130, 255] {
                let e = BigUint::one().shl(bits).sub(&BigUint::one());
                assert_eq!(
                    ctx.pow(&base, &e),
                    base.pow_mod_reference(&e, &m),
                    "bits={bits} {:?}",
                    ctx.kernel
                );
            }
        }
    }

    #[test]
    fn multi_pow_matches_sequential_product() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..10 {
            let limbs = 2 + (rng.gen::<u8>() % 3) as usize;
            let m = random_odd_modulus(&mut rng, limbs);
            let bases: Vec<BigUint> = (0..3)
                .map(|_| BigUint::random_below(&mut rng, &m))
                .collect();
            let exps: Vec<BigUint> = vec![
                random_odd_modulus(&mut rng, 2),
                BigUint::from_u64(rng.gen()),
                BigUint::zero(),
            ];
            let pairs: Vec<(&BigUint, &BigUint)> = bases.iter().zip(exps.iter()).collect();
            let want = bases
                .iter()
                .zip(exps.iter())
                .fold(BigUint::one(), |acc, (b, e)| {
                    acc.mul_mod(&b.pow_mod_reference(e, &m), &m)
                });
            for ctx in contexts(&m) {
                assert_eq!(ctx.multi_pow(&pairs), want, "{:?}", ctx.kernel);
            }
        }
        // Empty product is 1.
        let m = b("ffffffffffffffffffffffffffffff61");
        for ctx in contexts(&m) {
            assert_eq!(ctx.multi_pow(&[]), BigUint::one());
        }
    }

    #[test]
    fn fixed_base_table_matches_reference() {
        let mut rng = StdRng::seed_from_u64(24);
        let m = random_odd_modulus(&mut rng, 4);
        let base = BigUint::random_below(&mut rng, &m);
        let exps: Vec<BigUint> = (0..10).map(|_| random_odd_modulus(&mut rng, 4)).collect();
        for ctx in contexts(&m) {
            let table = FixedBaseTable::build(&ctx, &base, 256);
            assert_eq!(table.max_bits(), 256);
            for e in &exps {
                assert_eq!(table.pow(&ctx, e).unwrap(), base.pow_mod_reference(e, &m));
            }
            assert_eq!(table.pow(&ctx, &BigUint::zero()).unwrap(), BigUint::one());
            assert_eq!(table.pow(&ctx, &BigUint::one()).unwrap(), base.rem(&m));
            // Exponent wider than the table: caller must fall back.
            let wide = BigUint::one().shl(257);
            assert_eq!(table.pow(&ctx, &wide), None);
        }
    }

    #[test]
    fn jacobi_matches_euler_criterion_on_small_prime() {
        // p = 2^32 - 5 is prime; Euler: (a/p) = a^((p-1)/2) mod p.
        let p = b("fffffffb");
        let exp = p.shr(1);
        let mut rng = StdRng::seed_from_u64(25);
        for _ in 0..50 {
            let a = BigUint::random_below(&mut rng, &p);
            let euler = a.pow_mod(&exp, &p);
            let want = if a.is_zero() {
                0
            } else if euler == BigUint::one() {
                1
            } else {
                -1
            };
            assert_eq!(jacobi(&a, &p), want, "a={a}");
        }
        assert_eq!(jacobi(&BigUint::zero(), &p), 0);
        assert_eq!(jacobi(&p, &p), 0);
    }

    #[test]
    #[should_panic(expected = "odd n")]
    fn jacobi_rejects_even_modulus() {
        jacobi(&b("3"), &b("10"));
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn montgomery_rejects_even_modulus() {
        Montgomery::new(&b("10"));
    }

    /// Limb counts on both sides of the widths the groups use (4, 8, 32,
    /// 48, 64) and the degenerate small ones.
    const KERNEL_WIDTHS: [usize; 8] = [1, 2, 3, 31, 32, 33, 48, 64];

    /// `a·b·R⁻¹ mod n` by schoolbook product, modular inverse and Knuth
    /// division — the kernel's products from first principles.
    fn mont_product_reference(ctx: &Montgomery, a: &[u64], b: &[u64]) -> Vec<u64> {
        let n = ctx.modulus();
        let r_inv = BigUint::one().shl(64 * ctx.k()).inv_mod(n).unwrap();
        let (a, b) = (
            BigUint::from_limbs(a.to_vec()),
            BigUint::from_limbs(b.to_vec()),
        );
        let mut out = a.mul(&b).rem(n).mul(&r_inv).rem(n).limbs;
        out.resize(ctx.k(), 0);
        out
    }

    #[test]
    fn squaring_path_equals_multiply_path() {
        let mut rng = StdRng::seed_from_u64(26);
        for k in KERNEL_WIDTHS {
            let n = random_odd_modulus(&mut rng, k);
            let ctx = Montgomery::on_kernel(&n, "portable").unwrap();
            let mut operands = vec![
                ctx.residue(&BigUint::zero()),
                ctx.residue(&BigUint::one()),
                ctx.residue(&n.sub(&BigUint::one())),
            ];
            for _ in 0..6 {
                operands.push(ctx.residue(&BigUint::random_below(&mut rng, &n)));
            }
            let (mut sq, mut prod, mut t) = (vec![0; k], vec![0; k], vec![0; 2 * k + 1]);
            for a in &operands {
                ctx.mont_sqr(&mut sq, a, &mut t);
                ctx.mont_mul(&mut prod, a, a, &mut t);
                assert_eq!(sq, prod, "k={k}");
                assert_eq!(sq, mont_product_reference(&ctx, a, a), "k={k}");
            }
        }
    }

    #[test]
    fn fused_product_subtracts_and_carries_into_the_top_limb() {
        // The product leaves the passes below 2n. Under a modulus just
        // above R/2 it can reach n without reaching R (final subtraction,
        // top limb clear); under the all-ones modulus R − 1 reaching n
        // means spilling into limb k (top limb set). Both must come out
        // reduced; the scratch is the caller's, so the test can look.
        let mut rng = StdRng::seed_from_u64(27);
        for k in [1usize, 2, 32] {
            let just_above_half = BigUint::one().shl(64 * k - 1).add(&BigUint::one());
            let all_ones = BigUint::one().shl(64 * k).sub(&BigUint::one());
            let (mut subtracted, mut carried) = (0, 0);
            for n in [just_above_half, all_ones] {
                let ctx = Montgomery::on_kernel(&n, "portable").unwrap();
                let (mut out, mut t) = (vec![0; k], vec![0; 2 * k + 1]);
                for _ in 0..40 {
                    let a = ctx.residue(&BigUint::random_below(&mut rng, &n));
                    let b = ctx.residue(&BigUint::random_below(&mut rng, &n));
                    ctx.mont_mul(&mut out, &a, &b, &mut t);
                    assert_eq!(out, mont_product_reference(&ctx, &a, &b), "k={k}");
                    let unreduced = BigUint::from_limbs(t[k..2 * k].to_vec());
                    if t[2 * k] == 1 {
                        carried += 1;
                    } else if unreduced >= n {
                        subtracted += 1;
                    }
                }
            }
            assert!(
                subtracted > 0 && carried > 0,
                "k={k}: {subtracted} / {carried}"
            );
        }
    }

    #[test]
    fn kernel_paths_match_reference_at_every_width() {
        let mut rng = StdRng::seed_from_u64(28);
        for k in KERNEL_WIDTHS {
            let n = random_odd_modulus(&mut rng, k);
            let all_ones = BigUint::one().shl(64 * k).sub(&BigUint::one());
            let bases = [
                BigUint::zero(),
                BigUint::one(),
                n.sub(&BigUint::one()),
                all_ones,                       // ≥ n
                BigUint::from_u64(0xdead_beef), // shorter than k limbs
                n.add(&BigUint::from_u64(5)),
                BigUint::random_below(&mut rng, &n),
            ];
            // One exponent per path: binary (≤ 48 bits) and windowed.
            let exps = [BigUint::from_u64(65537), random_odd_modulus(&mut rng, 2)];
            let pairs: Vec<(&BigUint, &BigUint)> = bases.iter().zip(exps.iter().cycle()).collect();
            let want = pairs.iter().fold(BigUint::one().rem(&n), |acc, (b, e)| {
                acc.mul_mod(&b.pow_mod_reference(e, &n), &n)
            });
            for ctx in contexts(&n) {
                let on = &ctx.kernel;
                for base in &bases {
                    let table = FixedBaseTable::build(&ctx, base, 128);
                    for e in &exps {
                        let want = base.pow_mod_reference(e, &n);
                        assert_eq!(ctx.pow(base, e), want, "pow k={k} base={base} {on:?}");
                        assert_eq!(table.pow(&ctx, e), Some(want), "table k={k} {on:?}");
                    }
                }
                assert_eq!(ctx.multi_pow(&pairs), want, "multi_pow k={k} {on:?}");
            }
        }
    }

    #[test]
    fn montgomery_mul_matches_mul_mod() {
        let mut rng = StdRng::seed_from_u64(29);
        for k in KERNEL_WIDTHS {
            let n = random_odd_modulus(&mut rng, k);
            let wide = n.shl(70); // operands well above n reduce first
            let operands: Vec<(BigUint, BigUint)> = (0..8)
                .map(|_| {
                    let a = BigUint::random_below(&mut rng, &wide);
                    (a, BigUint::random_below(&mut rng, &n))
                })
                .collect();
            for ctx in contexts(&n) {
                let on = kernel_name(&ctx);
                for (a, b) in &operands {
                    assert_eq!(ctx.mul(a, b), a.mul_mod(b, &n), "k={k} {on}");
                    assert_eq!(ctx.mul(a, a), a.mul_mod(a, &n), "k={k} {on}");
                }
                assert_eq!(ctx.mul(&BigUint::zero(), &n), BigUint::zero());
            }
        }
    }

    fn kernel_name(ctx: &Montgomery) -> &'static str {
        match ctx.kernel {
            Kernel::Portable => "portable",
            Kernel::Ifma52 { .. } => "ifma52",
        }
    }

    #[test]
    fn kernel_is_reported_and_runnable() {
        println!("bigint kernel: {}", kernel());
        assert!(["portable", "ifma52"].contains(&kernel()));
        let p = crate::group::SchnorrGroup::rfc3526_2048().p().clone();
        assert_eq!(kernel_name(&Montgomery::new(&p)), kernel());
        assert!(Montgomery::on_kernel(&p, kernel()).is_some());
        assert!(Montgomery::on_kernel(&p, "portable").is_some());
        assert!(Montgomery::on_kernel(&p, "no-such-kernel").is_none());
        // Past IFMA_MAX_DIGITS every CPU runs the portable kernel.
        let wide = BigUint::one()
            .shl(DIGIT_BITS * IFMA_MAX_DIGITS - 1)
            .add(&BigUint::one());
        assert!(Montgomery::on_kernel(&wide, "ifma52").is_none());
        assert_eq!(kernel_name(&Montgomery::new(&wide)), "portable");
    }

    /// The IFMA kernel's context for `n`, or `None` (and a note) on a CPU
    /// without it.
    fn ifma_context(n: &BigUint) -> Option<Montgomery> {
        let ctx = Montgomery::on_kernel(n, "ifma52");
        if ctx.is_none() {
            println!("note: this CPU lacks AVX-512 IFMA; the IFMA kernel is not tested");
        }
        ctx
    }

    /// The value of a residue in digits, checking that each is below 2^52.
    fn from_digits(digits: &[u64]) -> BigUint {
        digits.iter().rev().fold(BigUint::zero(), |acc, &d| {
            assert!(d <= DIGIT_MASK, "unnormalised digit {d:#x}");
            acc.shl(DIGIT_BITS).add(&BigUint::from_u64(d))
        })
    }

    /// `R = 2^(52·D)` reduced mod the context's modulus.
    fn ifma_r(ctx: &Montgomery) -> BigUint {
        let Kernel::Ifma52 { digits, .. } = ctx.kernel else {
            panic!("not an IFMA context")
        };
        BigUint::one().shl(DIGIT_BITS * digits).rem(ctx.modulus())
    }

    /// One almost-Montgomery product of two values below `2n`.
    fn amm_of(ctx: &Montgomery, a: &BigUint, b: &BigUint) -> Vec<u64> {
        let digits = ctx.residue_len();
        let mut out = vec![0; digits];
        ctx.amm(
            &mut out,
            &to_digits(&a.limbs, digits),
            Operand::Limbs(&b.limbs),
        );
        out
    }

    /// Odd moduli of `bits = 52·j − 2, 52·j − 1, 52·j` for `j = 1..=80` —
    /// the widths where `52·D − bits` is 2, 1 or 0 for `D = j`, so that the
    /// `+ 2` in `D = ⌈(bits + 2) / 52⌉` decides between `j` and `j + 1`
    /// digits — and the all-ones `2^(52·j − 2) − 1`, the largest modulus
    /// with `4n < R` on `j` digits.
    fn digit_width_moduli(rng: &mut StdRng) -> Vec<BigUint> {
        let one = BigUint::one();
        let mut moduli = Vec::new();
        for j in 1..=80 {
            for bits in [52 * j - 2, 52 * j - 1, 52 * j] {
                let top = one.shl(bits - 1);
                let n = top.add(&BigUint::random_below(rng, &top));
                moduli.push(if n.is_even() { n.add(&one) } else { n });
            }
            moduli.push(one.shl(52 * j - 2).sub(&one));
        }
        moduli
    }

    #[test]
    fn ifma_products_match_reference_at_every_digit_width() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in digit_width_moduli(&mut rng) {
            let Some(ctx) = ifma_context(&n) else { return };
            let digits = ifma_digits(&n);
            assert!(DIGIT_BITS * digits >= n.bit_len() + 2 && digits * 52 < n.bit_len() + 54);
            let (one, two_n, r) = (BigUint::one(), n.shl(1), ifma_r(&ctx));
            // Every input the kernel can be handed: 0, 1, n − 1, n (zero,
            // almost reduced), 2n − 1 (the largest), and random ones.
            let edges = [
                BigUint::zero(),
                one.clone(),
                n.sub(&one),
                n.clone(),
                two_n.sub(&one),
                BigUint::random_below(&mut rng, &n),
                BigUint::random_below(&mut rng, &two_n),
            ];
            for a in &edges {
                for b in &edges {
                    let out = amm_of(&ctx, a, b);
                    let got = from_digits(&out);
                    let bits = n.bit_len();
                    assert!(got < two_n, "bits={bits} a={a} b={b}: {got} ≥ 2n");
                    assert_eq!(got.mul_mod(&r, &n), a.mul_mod(b, &n), "bits={bits}");
                    // The multiplier read from digits gives the same digits.
                    let mut direct = vec![0; out.len()];
                    let a_d = to_digits(&a.limbs, digits);
                    ctx.amm(
                        &mut direct,
                        &a_d,
                        Operand::Digits(&to_digits(&b.limbs, digits)),
                    );
                    assert_eq!(direct, out, "bits={bits}");
                }
            }
        }
    }

    /// Chains of 1 200 products — squarings and multiplications by a fixed
    /// operand, as in an exponentiation — never leave `[0, 2n)` and track
    /// the reference at every step, on every group and on the all-ones
    /// moduli that sit closest to `R / 4`.
    #[test]
    fn ifma_product_chains_stay_below_2n() {
        use crate::group::SchnorrGroup;
        let mut rng = StdRng::seed_from_u64(32);
        let one = BigUint::one();
        let mut moduli: Vec<BigUint> = [
            SchnorrGroup::test_256(),
            SchnorrGroup::test_512(),
            SchnorrGroup::rfc3526_2048(),
            SchnorrGroup::rfc3526_3072(),
            SchnorrGroup::rfc3526_4096(),
        ]
        .iter()
        .map(|g| g.p().clone())
        .collect();
        moduli.extend([5, 40, 79].map(|d| one.shl(52 * d - 2).sub(&one)));
        for n in moduli {
            let Some(ctx) = ifma_context(&n) else { return };
            let (two_n, r_inv) = (n.shl(1), ifma_r(&ctx).inv_mod(&n).unwrap());
            let y = two_n.sub(&BigUint::random_below(&mut rng, &n));
            let mut x = BigUint::random_below(&mut rng, &two_n);
            let mut want = x.rem(&n);
            for step in 0..1200 {
                let b = if step % 5 == 4 { y.clone() } else { x.clone() };
                want = want.mul_mod(&b, &n).mul_mod(&r_inv, &n);
                x = from_digits(&amm_of(&ctx, &x, &b));
                assert!(x < two_n, "{} bits, step {step}", n.bit_len());
                assert_eq!(x.rem(&n), want, "{} bits, step {step}", n.bit_len());
            }
        }
    }

    /// `pow` (both paths), `multi_pow`, `FixedBaseTable::pow` and `mul` on
    /// every kernel against the division-based reference, on all five
    /// groups, at edge bases and at exponents of 0, 1, 320 bits and full
    /// width.
    #[test]
    fn kernels_agree_with_reference_on_every_group() {
        use crate::group::SchnorrGroup;
        let mut rng = StdRng::seed_from_u64(33);
        let one = BigUint::one();
        for group in [
            SchnorrGroup::test_256(),
            SchnorrGroup::test_512(),
            SchnorrGroup::rfc3526_2048(),
            SchnorrGroup::rfc3526_3072(),
            SchnorrGroup::rfc3526_4096(),
        ] {
            let p = group.p();
            let random = BigUint::random_below(&mut rng, p);
            let bases = [
                BigUint::zero(),
                one.clone(),
                p.sub(&one),
                p.add(&one),
                random.clone(),
            ];
            let exps = [
                BigUint::zero(),
                one.clone(),
                BigUint::from_u64(65537),
                BigUint::random_below(&mut rng, &one.shl(320)),
            ];
            let full = group.q().sub(&one);
            let want_full = random.pow_mod_reference(&full, p);
            let pairs: Vec<(&BigUint, &BigUint)> = bases.iter().zip(exps.iter().cycle()).collect();
            let want_multi = pairs.iter().fold(one.clone(), |acc, (b, e)| {
                acc.mul_mod(&b.pow_mod_reference(e, p), p)
            });
            for ctx in contexts(p) {
                let on = (group.name(), kernel_name(&ctx));
                for base in &bases {
                    let table = FixedBaseTable::build(&ctx, base, 320);
                    for e in &exps {
                        let want = base.pow_mod_reference(e, p);
                        assert_eq!(ctx.pow(base, e), want, "pow {on:?}");
                        assert_eq!(table.pow(&ctx, e), Some(want), "table {on:?}");
                    }
                    assert_eq!(ctx.mul(base, &random), base.mul_mod(&random, p), "{on:?}");
                }
                assert_eq!(ctx.pow(&random, &full), want_full, "full pow {on:?}");
                let table = FixedBaseTable::build(&ctx, &random, full.bit_len());
                assert_eq!(table.pow(&ctx, &full), Some(want_full.clone()), "{on:?}");
                assert_eq!(ctx.multi_pow(&pairs), want_multi, "multi_pow {on:?}");
            }
        }
    }

    #[test]
    fn jacobi_matches_euler_criterion_on_trailing_zero_runs_and_edges() {
        // 512-bit safe prime (8 limbs): values whose low limbs are all
        // zero make the in-place loop strip several limbs in one shift.
        let p = crate::group::SchnorrGroup::test_512().p().clone();
        let q = p.shr(1);
        let euler = |a: &BigUint| {
            let e = a.pow_mod_reference(&q, &p);
            if e.is_zero() {
                0
            } else if e == BigUint::one() {
                1
            } else {
                -1
            }
        };
        let mut rng = StdRng::seed_from_u64(30);
        for shift in [1usize, 63, 64, 65, 128, 130, 192, 257, 320] {
            let odd = BigUint::random_below(&mut rng, &p.shr(shift + 1));
            let a = odd.shl(shift);
            assert!(a.is_zero() || a.trailing_zeros() >= shift);
            assert_eq!(jacobi(&a, &p), euler(&a), "shift={shift}");
        }
        let one = BigUint::one();
        for a in [
            BigUint::zero(),
            one.clone(),
            p.sub(&one),
            p.clone(),
            p.add(&one),
        ] {
            assert_eq!(jacobi(&a, &p), euler(&a), "a={a}");
        }
        // Composite n: the symbol is multiplicative in n, and 0 on a
        // shared factor.
        let n = b("fffffffb").mul(&b("3b")); // (2^32 − 5) · 59
        for a in [b("2"), b("1000000000000"), b("3b00000000"), b("deadbeef00")] {
            let want = jacobi(&a, &b("fffffffb")) * jacobi(&a, &b("3b"));
            assert_eq!(jacobi(&a, &n), want, "a={a}");
        }
    }
}
