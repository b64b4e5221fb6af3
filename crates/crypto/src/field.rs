//! Arithmetic in the field GF(2^255 − 19) underlying Curve25519.
//!
//! Elements are four little-endian `u64` limbs kept *weakly reduced*
//! (< 2^256); full canonical reduction happens on encode/compare. Every
//! operation is limb arithmetic: carries and borrows out of bit 255 fold
//! back in as ±38 (since `2^256 ≡ 38 (mod p)`), canonical reduction is at
//! most two conditional subtractions of `p` (because `2^256 = 2p + 38`),
//! and inversion and square roots run fixed addition chains.
//!
//! The implementation is **not constant-time** — this library is a research
//! reproduction of a PODC paper, not a production wallet — and is
//! property-tested against the generic big-integer reference in
//! [`crate::bigint`].

use crate::bigint::{U256, U512};
use std::fmt;
use std::sync::OnceLock;

/// An element of GF(2^255 − 19).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct FieldElement([u64; 4]);

/// `p = 2^255 − 19`, little-endian limbs.
const P: U256 = U256([
    0xFFFF_FFFF_FFFF_FFED,
    u64::MAX,
    u64::MAX,
    0x7FFF_FFFF_FFFF_FFFF,
]);

/// The prime modulus `p = 2^255 − 19` as a `U256`.
pub fn prime() -> U256 {
    P
}

impl FieldElement {
    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement([0; 4]);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0]);

    /// Constructs from a small integer.
    pub const fn from_u64(v: u64) -> FieldElement {
        FieldElement([v, 0, 0, 0])
    }

    /// Constructs from 32 little-endian bytes, reducing modulo `p`.
    ///
    /// Point decompression masks the sign bit before calling this; general
    /// callers may pass any 256-bit value.
    pub fn from_le_bytes(bytes: &[u8; 32]) -> FieldElement {
        FieldElement(FieldElement(U256::from_le_bytes(bytes).0).reduce().0)
    }

    /// Canonical 32-byte little-endian encoding (fully reduced).
    pub fn to_le_bytes(self) -> [u8; 32] {
        self.reduce().to_le_bytes()
    }

    /// The canonical residue in `[0, p)`: a weakly reduced value is below
    /// `2^256 = 2p + 38`, so two conditional subtractions of `p` suffice.
    pub fn reduce(self) -> U256 {
        let mut value = U256(self.0);
        for _ in 0..2 {
            let (diff, borrow) = value.overflowing_sub(P);
            if !borrow {
                value = diff;
            }
        }
        value
    }

    /// Whether the canonical residue is zero.
    pub fn is_zero(self) -> bool {
        self.reduce().is_zero()
    }

    /// The low bit of the canonical residue (the "sign" in EdDSA point
    /// compression).
    pub fn is_odd(self) -> bool {
        self.reduce().bit(0)
    }

    /// Field addition.
    pub fn add(self, rhs: FieldElement) -> FieldElement {
        let (mut sum, mut overflow) = U256(self.0).overflowing_add(U256(rhs.0));
        while overflow {
            // 2^256 ≡ 38 (mod p); the second fold cannot overflow again
            // but the loop keeps the invariant obvious.
            let (s, o) = sum.overflowing_add(U256::from_u64(38));
            sum = s;
            overflow = o;
        }
        FieldElement(sum.0)
    }

    /// Field subtraction.
    pub fn sub(self, rhs: FieldElement) -> FieldElement {
        let (mut diff, mut borrow) = U256(self.0).overflowing_sub(U256(rhs.0));
        while borrow {
            // A borrow out of bit 255 added 2^256 ≡ 38 (mod p): take the
            // 38 back off. A second borrow leaves a value near 2^256, so
            // the loop runs at most twice.
            let (d, b) = diff.overflowing_sub(U256::from_u64(38));
            diff = d;
            borrow = b;
        }
        FieldElement(diff.0)
    }

    /// Field negation.
    pub fn neg(self) -> FieldElement {
        FieldElement::ZERO.sub(self)
    }

    /// Field multiplication with fast `2^256 ≡ 38` folding.
    pub fn mul(self, rhs: FieldElement) -> FieldElement {
        let product = U256(self.0).widening_mul(U256(rhs.0));
        FieldElement(fold_512(product).0)
    }

    /// Field squaring: the six cross products `aᵢ·aⱼ` (`i < j`) are
    /// computed once and doubled, then the four diagonal squares added.
    pub fn square(self) -> FieldElement {
        let a = self.0;
        let mut out = [0u64; 8];
        for i in 0..3 {
            let mut carry = 0u128;
            for j in (i + 1)..4 {
                let acc = out[i + j] as u128 + (a[i] as u128) * (a[j] as u128) + carry;
                out[i + j] = acc as u64;
                carry = acc >> 64;
            }
            out[i + 4] = carry as u64;
        }
        // The cross-product sum is below 2^511, so doubling cannot carry
        // out of the top limb.
        let mut top = 0u64;
        for limb in out.iter_mut() {
            let next = *limb >> 63;
            *limb = (*limb << 1) | top;
            top = next;
        }
        let mut carry = 0u128;
        for i in 0..4 {
            let square = (a[i] as u128) * (a[i] as u128);
            let low = out[2 * i] as u128 + (square as u64) as u128 + carry;
            out[2 * i] = low as u64;
            let high = out[2 * i + 1] as u128 + (square >> 64) + (low >> 64);
            out[2 * i + 1] = high as u64;
            carry = high >> 64;
        }
        FieldElement(fold_512(U512(out)).0)
    }

    /// `self^(2^k)`: `k` successive squarings.
    fn pow2k(self, k: u32) -> FieldElement {
        let mut x = self;
        for _ in 0..k {
            x = x.square();
        }
        x
    }

    /// Exponentiation by a 256-bit exponent (square-and-multiply).
    pub fn pow(self, exponent: U256) -> FieldElement {
        let mut result = FieldElement::ONE;
        let mut base = self;
        for i in 0..exponent.bits() {
            if exponent.bit(i) {
                result = result.mul(base);
            }
            base = base.square();
        }
        result
    }

    /// The shared prefix of the inversion and square-root addition
    /// chains: returns `(self^(2^250 − 1), self^11)` after 249 squarings
    /// and 10 multiplications.
    fn pow22501(self) -> (FieldElement, FieldElement) {
        let x2 = self.square();
        let x9 = self.mul(x2.pow2k(2));
        let x11 = x2.mul(x9);
        let e5 = x9.mul(x11.square()); // 2^5 − 1
        let e10 = e5.pow2k(5).mul(e5); // 2^10 − 1
        let e20 = e10.pow2k(10).mul(e10); // 2^20 − 1
        let e40 = e20.pow2k(20).mul(e20); // 2^40 − 1
        let e50 = e40.pow2k(10).mul(e10); // 2^50 − 1
        let e100 = e50.pow2k(50).mul(e50); // 2^100 − 1
        let e200 = e100.pow2k(100).mul(e100); // 2^200 − 1
        let e250 = e200.pow2k(50).mul(e50); // 2^250 − 1
        (e250, x11)
    }

    /// Multiplicative inverse via Fermat: `a^(p−2) = a^(2^255 − 21)`, by
    /// an addition chain of 254 squarings and 11 multiplications.
    ///
    /// Returns zero for zero (no inverse exists).
    pub fn invert(self) -> FieldElement {
        let (e250, x11) = self.pow22501();
        e250.pow2k(5).mul(x11) // 2^255 − 2^5 + 11
    }

    /// `self^((p−5)/8) = self^(2^252 − 3)`, the square-root exponent.
    fn pow_p58(self) -> FieldElement {
        let (e250, _) = self.pow22501();
        e250.pow2k(2).mul(self) // 2^252 − 4 + 1
    }

    /// `sqrt(u/v)` as used by Ed25519 point decompression
    /// (RFC 8032 §5.1.3).
    ///
    /// Returns `Some(x)` with `v·x² = u` when a square root exists
    /// (choosing an arbitrary sign), `None` otherwise.
    pub fn sqrt_ratio(u: FieldElement, v: FieldElement) -> Option<FieldElement> {
        // candidate = u * v^3 * (u * v^7)^((p-5)/8)
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let candidate = u.mul(v3).mul(u.mul(v7).pow_p58());
        let check = v.mul(candidate.square());
        if check.equals(u) {
            Some(candidate)
        } else if check.equals(u.neg()) {
            Some(candidate.mul(sqrt_minus_one()))
        } else {
            None
        }
    }

    /// Canonical equality (compares fully-reduced residues).
    pub fn equals(self, rhs: FieldElement) -> bool {
        self.reduce() == rhs.reduce()
    }
}

impl fmt::Debug for FieldElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fe({:?})", self.reduce())
    }
}

/// Folds a 512-bit product into a weakly-reduced 256-bit value using
/// `2^256 ≡ 38 (mod p)`.
fn fold_512(product: U512) -> U256 {
    // low + high * 38; high * 38 < 2^256 * 38 so do it limb-wise.
    let low = product.low_u256();
    let high = product.high_u256();
    let mut out = [0u64; 4];
    let mut carry: u128 = 0;
    for i in 0..4 {
        let acc = low.0[i] as u128 + (high.0[i] as u128) * 38 + carry;
        out[i] = acc as u64;
        carry = acc >> 64;
    }
    // carry < 38; fold again: carry * 2^256 ≡ carry * 38.
    let mut result = U256(out);
    while carry != 0 {
        let (sum, overflow) = result.overflowing_add(U256::from_u64(carry as u64 * 38));
        result = sum;
        carry = overflow as u128;
    }
    result
}

/// `sqrt(−1) = 2^((p−1)/4) mod p`, derived rather than transcribed.
pub fn sqrt_minus_one() -> FieldElement {
    static ROOT: OnceLock<FieldElement> = OnceLock::new();
    *ROOT.get_or_init(|| {
        let (pm1, _) = prime().overflowing_sub(U256::ONE);
        let exponent = {
            // (p - 1) / 4
            let half = shr1(pm1);
            shr1(half)
        };
        FieldElement::from_u64(2).pow(exponent)
    })
}

fn shr1(x: U256) -> U256 {
    let mut out = [0u64; 4];
    for i in 0..4 {
        out[i] = x.0[i] >> 1;
        if i + 1 < 4 {
            out[i] |= x.0[i + 1] << 63;
        }
    }
    U256(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(v: u64) -> FieldElement {
        FieldElement::from_u64(v)
    }

    #[test]
    fn prime_value() {
        // p = 2^255 - 19: check low and high limbs.
        let p = prime();
        assert_eq!(p.0[0], u64::MAX - 18);
        assert_eq!(p.0[3], 0x7FFF_FFFF_FFFF_FFFF);
    }

    #[test]
    fn add_sub_inverse() {
        let a = fe(12345);
        let b = fe(67890);
        assert!(a.add(b).sub(b).equals(a));
        assert!(a.sub(a).is_zero());
    }

    #[test]
    fn neg_of_zero_is_zero() {
        assert!(FieldElement::ZERO.neg().is_zero());
    }

    #[test]
    fn mul_matches_bigint_reference() {
        let values = [
            U256::from_u64(0),
            U256::from_u64(1),
            U256::from_u64(19),
            U256([u64::MAX, u64::MAX, u64::MAX, 0x7FFF_FFFF_FFFF_FFFF]),
            U256([0xDEAD_BEEF, 0xCAFE_BABE, 0x1234_5678, 0x0FED_CBA9]),
            prime().overflowing_sub(U256::ONE).0,
        ];
        for &x in &values {
            for &y in &values {
                let fast = FieldElement(x.0).mul(FieldElement(y.0)).reduce();
                let reference = x.rem(prime()).mul_mod(y.rem(prime()), prime());
                assert_eq!(fast, reference, "x={x:?} y={y:?}");
            }
        }
    }

    #[test]
    fn two_to_256_is_38() {
        // encode 2^255 - 19 + 38*? sanity: (2^128)^2 = 2^256 ≡ 38.
        let two128 = FieldElement([0, 0, 1, 0]);
        assert!(two128.square().equals(fe(38)));
    }

    #[test]
    fn invert_small_values() {
        for v in [1u64, 2, 3, 19, 121666, 0xFFFF_FFFF] {
            let x = fe(v);
            assert!(x.mul(x.invert()).equals(FieldElement::ONE), "v={v}");
        }
    }

    #[test]
    fn invert_zero_is_zero() {
        assert!(FieldElement::ZERO.invert().is_zero());
    }

    #[test]
    fn pow_small_exponents() {
        assert!(fe(3).pow(U256::from_u64(4)).equals(fe(81)));
        assert!(fe(5).pow(U256::ZERO).equals(FieldElement::ONE));
        assert!(fe(5).pow(U256::ONE).equals(fe(5)));
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p-1) = 1 for a ≠ 0.
        let exponent = prime().overflowing_sub(U256::ONE).0;
        assert!(fe(7).pow(exponent).equals(FieldElement::ONE));
    }

    #[test]
    fn sqrt_minus_one_squares_to_minus_one() {
        let i = sqrt_minus_one();
        assert!(i.square().equals(FieldElement::ONE.neg()));
    }

    #[test]
    fn sqrt_ratio_finds_roots() {
        // 4/1 has root ±2.
        let root = FieldElement::sqrt_ratio(fe(4), FieldElement::ONE).expect("root");
        assert!(root.equals(fe(2)) || root.equals(fe(2).neg()));

        // 2/1: 2 is not a quadratic residue mod p (p ≡ 5 mod 8).
        assert!(FieldElement::sqrt_ratio(fe(2), FieldElement::ONE).is_none());

        // u/v with v ≠ 1: 8/2 = 4 has a root.
        let root = FieldElement::sqrt_ratio(fe(8), fe(2)).expect("root");
        assert!(fe(2).mul(root.square()).equals(fe(8)));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let x = FieldElement([0xAAAA, 0xBBBB, 0xCCCC, 0xDDDD]);
        let bytes = x.to_le_bytes();
        let back = FieldElement::from_le_bytes(&bytes);
        assert!(x.equals(back));
    }

    #[test]
    fn decode_reduces_large_values() {
        // 2^255 - 1 ≡ 18 (mod p)
        let mut bytes = [0xFFu8; 32];
        bytes[31] = 0x7F;
        assert!(FieldElement::from_le_bytes(&bytes).equals(fe(18)));
    }

    #[test]
    fn parity_of_canonical_residue() {
        assert!(!fe(0).is_odd());
        assert!(fe(1).is_odd());
        assert!(!fe(2).is_odd());
        // -1 = p - 1, which is even.
        assert!(!FieldElement::ONE.neg().is_odd());
    }

    #[test]
    fn weak_reduction_stays_consistent() {
        // Repeated additions keep values weakly reduced but semantically
        // correct.
        let mut acc = FieldElement::ZERO;
        for _ in 0..1000 {
            acc = acc.add(FieldElement([u64::MAX; 4]));
        }
        let expected = U256([u64::MAX; 4])
            .rem(prime())
            .mul_mod(U256::from_u64(1000), prime());
        assert_eq!(acc.reduce(), expected);
    }

    /// Checks every operation on weakly reduced (any 256-bit) inputs
    /// against the big-integer reference.
    mod weakly_reduced {
        use super::*;
        use proptest::prelude::*;

        fn p() -> U256 {
            prime()
        }

        /// The edges of the weakly reduced range `[0, 2^256)`: around
        /// `p`, `2p` and `2^256`.
        fn edges() -> Vec<U256> {
            let p = p();
            let two_p = p.overflowing_add(p).0;
            vec![
                U256::ZERO,
                U256::ONE,
                U256::from_u64(38),
                p.overflowing_sub(U256::ONE).0,
                p,
                p.overflowing_add(U256::ONE).0,
                two_p.overflowing_sub(U256::ONE).0,
                two_p,
                U256([u64::MAX; 4]),
            ]
        }

        /// Any 256-bit value, with the edges drawn about a quarter of
        /// the time.
        fn raw() -> impl Strategy<Value = U256> {
            (prop::array::uniform4(any::<u64>()), 0usize..32)
                .prop_map(|(limbs, pick)| edges().get(pick).copied().unwrap_or(U256(limbs)))
        }

        /// Reference square-and-multiply over `mul_mod`.
        fn ref_pow(base: U256, exponent: U256) -> U256 {
            let mut result = U256::ONE;
            for i in (0..256).rev() {
                result = result.mul_mod(result, p());
                if exponent.bit(i) {
                    result = result.mul_mod(base, p());
                }
            }
            result
        }

        fn ref_invert(a: U256) -> U256 {
            ref_pow(a, p().overflowing_sub(U256::from_u64(2)).0)
        }

        fn check_arithmetic(a: U256, b: U256) {
            let p = p();
            let (fa, fb) = (FieldElement(a.0), FieldElement(b.0));
            let (ra, rb) = (a.rem(p), b.rem(p));
            assert_eq!(fa.reduce(), ra, "reduce {a:?}");
            assert_eq!(fa.sub(fb).reduce(), ra.sub_mod(rb, p), "{a:?} - {b:?}");
            assert_eq!(fa.neg().reduce(), U256::ZERO.sub_mod(ra, p), "-{a:?}");
            assert_eq!(fa.add(fb).reduce(), ra.add_mod(rb, p), "{a:?} + {b:?}");
            assert_eq!(fa.mul(fb).reduce(), ra.mul_mod(rb, p), "{a:?} * {b:?}");
            assert_eq!(fa.square().reduce(), ra.mul_mod(ra, p), "{a:?}^2");
            assert_eq!(fa.equals(fb), ra == rb, "{a:?} == {b:?}");
            assert_eq!(fa.is_zero(), ra.is_zero(), "{a:?} is zero");
            assert_eq!(fa.is_odd(), ra.bit(0), "{a:?} is odd");
            let decoded = FieldElement::from_le_bytes(&a.to_le_bytes());
            assert_eq!(U256(decoded.0), ra, "decode {a:?}");
        }

        fn check_invert(a: U256) {
            let expected = ref_invert(a.rem(p()));
            assert_eq!(FieldElement(a.0).invert().reduce(), expected, "1/{a:?}");
        }

        /// `sqrt_ratio(u, v)` finds a root exactly when `u/v` is a square
        /// (Euler's criterion) or `u = v = 0`, and any root it returns
        /// satisfies `v·x² = u`.
        fn check_sqrt_ratio(u: U256, v: U256) {
            let p = p();
            let (ru, rv) = (u.rem(p), v.rem(p));
            let exists = if rv.is_zero() {
                ru.is_zero()
            } else {
                let w = ru.mul_mod(ref_invert(rv), p);
                let half = ref_pow(w, shr1(p.overflowing_sub(U256::ONE).0));
                w.is_zero() || half == U256::ONE
            };
            let root = FieldElement::sqrt_ratio(FieldElement(u.0), FieldElement(v.0));
            assert_eq!(root.is_some(), exists, "sqrt({u:?}/{v:?}) exists");
            if let Some(x) = root {
                let x = x.reduce();
                assert_eq!(rv.mul_mod(x.mul_mod(x, p), p), ru, "v·x² = u");
            }
        }

        #[test]
        fn edge_values_match_reference() {
            for &a in &edges() {
                for &b in &edges() {
                    check_arithmetic(a, b);
                }
                check_invert(a);
                check_sqrt_ratio(a, U256::ONE);
                check_sqrt_ratio(U256::ONE, a);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn arithmetic_matches_reference(a in raw(), b in raw()) {
                check_arithmetic(a, b);
            }
        }

        proptest! {
            // Each case runs three reference exponentiations through
            // binary long division: keep the count small.
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[test]
            fn invert_and_sqrt_ratio_match_reference(a in raw(), b in raw()) {
                check_invert(a);
                check_sqrt_ratio(a, b);
            }
        }
    }
}
