//! Arithmetic modulo the Ed25519 group order
//! `ℓ = 2^252 + 27742317777372353535851937790883648493`.
//!
//! Scalars are canonical residues in `[0, ℓ)`. Wide (512-bit) values — the
//! SHA-512 outputs of the EdDSA construction and the products of
//! [`Scalar::mul`] — are reduced by folding the bits above 2^252 back in
//! with `2^252 ≡ −c (mod ℓ)`, where `c` is ℓ's 125-bit low part: three
//! folds shrink any 512-bit value below 2^253, and a few conditional
//! subtractions of ℓ finish the job. No long division.

use crate::bigint::{U256, U512};
use std::fmt;

/// `ℓ = 2^252 + c`, little-endian limbs. The additive constant
/// `c = 27742317777372353535851937790883648493` is 125 bits:
/// `0x14DEF9DEA2F79CD6_5812631A5CF5D3ED`.
const L: U256 = U256([0x5812_631A_5CF5_D3ED, 0x14DE_F9DE_A2F7_9CD6, 0, 1 << 60]);

/// The group order `ℓ`.
pub fn order() -> U256 {
    L
}

/// Splits `x` at bit 252 into `(x mod 2^252, x >> 252)`.
fn split_252(x: &[u64; 8]) -> (U256, [u64; 8]) {
    let low = U256([x[0], x[1], x[2], x[3] & ((1 << 60) - 1)]);
    let mut high = [0u64; 8];
    for i in 0..5 {
        high[i] = (x[i + 3] >> 60) | x.get(i + 4).map_or(0, |limb| limb << 4);
    }
    (low, high)
}

/// `x·c` for `x < 2^387` (the product stays below 2^512).
fn mul_c(x: &[u64; 8]) -> [u64; 8] {
    let c = [L.0[0], L.0[1]];
    let mut out = [0u64; 8];
    for i in 0..6 {
        let mut carry = 0u128;
        for j in 0..2 {
            let acc = out[i + j] as u128 + (x[i] as u128) * (c[j] as u128) + carry;
            out[i + j] = acc as u64;
            carry = acc >> 64;
        }
        out[i + 2] = carry as u64;
    }
    out
}

/// Reduces a 512-bit value modulo ℓ.
fn reduce_wide(x: U512) -> U256 {
    // x = h₁·2^252 + l₁ ≡ l₁ − h₁c, and h₁c (< 2^385) splits the same
    // way, and so on: x ≡ l₁ − l₂ + l₃ − h₃c with every term below 2^252
    // (h₃c < 2^131).
    let (l1, h1) = split_252(&x.0);
    let (l2, h2) = split_252(&mul_c(&h1));
    let (l3, h3) = split_252(&mul_c(&h2));
    let m3 = mul_c(&h3);
    let m3 = U256([m3[0], m3[1], m3[2], m3[3]]);
    // Adding 2ℓ > 2^253 keeps the signed sum non-negative; the result is
    // below 2^253 + 2ℓ < 4ℓ, so at most three subtractions of ℓ remain.
    let two_l = L.overflowing_add(L).0;
    let positive = l1.overflowing_add(l3).0.overflowing_add(two_l).0;
    let mut r = positive.overflowing_sub(l2).0.overflowing_sub(m3).0;
    while r >= L {
        r = r.overflowing_sub(L).0;
    }
    r
}

/// A scalar modulo `ℓ`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar(U256);

impl Scalar {
    /// The scalar zero.
    pub const ZERO: Scalar = Scalar(U256([0; 4]));
    /// The scalar one.
    pub const ONE: Scalar = Scalar(U256([1, 0, 0, 0]));

    /// Constructs from a small integer.
    pub fn from_u64(v: u64) -> Scalar {
        // Every u64 is already below ℓ > 2^252.
        Scalar(U256::from_u64(v))
    }

    /// Reduces 32 little-endian bytes modulo `ℓ`.
    pub fn from_le_bytes_reduced(bytes: &[u8; 32]) -> Scalar {
        Scalar(reduce_wide(U512::from_u256(U256::from_le_bytes(bytes))))
    }

    /// Parses 32 little-endian bytes, rejecting non-canonical values
    /// (`≥ ℓ`), as RFC 8032 verification requires for `S`.
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let value = U256::from_le_bytes(bytes);
        (value < L).then_some(Scalar(value))
    }

    /// Reduces 64 little-endian bytes (a SHA-512 output) modulo `ℓ`.
    pub fn from_wide_bytes(bytes: &[u8; 64]) -> Scalar {
        Scalar(reduce_wide(U512::from_le_bytes(bytes)))
    }

    /// The "clamped" secret scalar of RFC 8032 §5.1.5: clears the low 3
    /// bits, clears bit 255, sets bit 254.
    ///
    /// Note: the clamped value is used *as an integer* in scalar
    /// multiplication, not reduced mod ℓ first; it is below 2^255 and the
    /// multiplication routine accepts the full range.
    pub fn clamp_integer(mut bytes: [u8; 32]) -> U256 {
        bytes[0] &= 0b1111_1000;
        bytes[31] &= 0b0111_1111;
        bytes[31] |= 0b0100_0000;
        U256::from_le_bytes(&bytes)
    }

    /// Canonical 32-byte little-endian encoding.
    pub fn to_le_bytes(self) -> [u8; 32] {
        self.0.to_le_bytes()
    }

    /// The canonical residue as a 256-bit integer.
    pub fn to_u256(self) -> U256 {
        self.0
    }

    /// Scalar addition mod ℓ.
    pub fn add(self, rhs: Scalar) -> Scalar {
        Scalar(self.0.add_mod(rhs.0, L))
    }

    /// Scalar subtraction mod ℓ.
    pub fn sub(self, rhs: Scalar) -> Scalar {
        Scalar(self.0.sub_mod(rhs.0, L))
    }

    /// Scalar multiplication mod ℓ.
    pub fn mul(self, rhs: Scalar) -> Scalar {
        Scalar(reduce_wide(self.0.widening_mul(rhs.0)))
    }

    /// Scalar negation mod ℓ.
    pub fn neg(self) -> Scalar {
        Scalar::ZERO.sub(self)
    }
}

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scalar({:?})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_magnitude() {
        // ℓ is a 253-bit number starting with 2^252.
        assert_eq!(order().bits(), 253);
        assert!(order().bit(252));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Scalar::from_u64(123456789);
        let b = Scalar::from_u64(987654321);
        assert_eq!(a.add(b).sub(b), a);
        assert_eq!(a.sub(a), Scalar::ZERO);
    }

    #[test]
    fn mul_identity_and_zero() {
        let a = Scalar::from_u64(424242);
        assert_eq!(a.mul(Scalar::ONE), a);
        assert_eq!(a.mul(Scalar::ZERO), Scalar::ZERO);
    }

    #[test]
    fn mul_commutes_and_distributes() {
        let a = Scalar::from_u64(0xDEAD_BEEF);
        let b = Scalar::from_u64(0xCAFE_BABE);
        let c = Scalar::from_u64(0x1234_5678);
        assert_eq!(a.mul(b), b.mul(a));
        assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    }

    #[test]
    fn neg_adds_to_zero() {
        let a = Scalar::from_u64(777);
        assert_eq!(a.add(a.neg()), Scalar::ZERO);
        assert_eq!(Scalar::ZERO.neg(), Scalar::ZERO);
    }

    #[test]
    fn wide_reduction_consistent_with_narrow() {
        // A 64-byte input whose high half is zero reduces like the low half.
        let mut wide = [0u8; 64];
        let mut narrow = [0u8; 32];
        for i in 0..32 {
            wide[i] = i as u8;
            narrow[i] = i as u8;
        }
        assert_eq!(
            Scalar::from_wide_bytes(&wide),
            Scalar::from_le_bytes_reduced(&narrow)
        );
    }

    #[test]
    fn wide_reduction_of_order_is_zero() {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&order().to_le_bytes());
        assert_eq!(Scalar::from_wide_bytes(&wide), Scalar::ZERO);
    }

    #[test]
    fn canonical_bytes_reject_order() {
        assert!(Scalar::from_canonical_bytes(&order().to_le_bytes()).is_none());
        let (below, _) = order().overflowing_sub(U256::ONE);
        assert!(Scalar::from_canonical_bytes(&below.to_le_bytes()).is_some());
        assert!(Scalar::from_canonical_bytes(&[0u8; 32]).is_some());
    }

    #[test]
    fn clamping_sets_expected_bits() {
        let clamped = Scalar::clamp_integer([0xFFu8; 32]);
        assert!(!clamped.bit(0));
        assert!(!clamped.bit(1));
        assert!(!clamped.bit(2));
        assert!(clamped.bit(254));
        assert!(!clamped.bit(255));

        let clamped_zero = Scalar::clamp_integer([0u8; 32]);
        assert!(clamped_zero.bit(254));
        assert_eq!(clamped_zero.bits(), 255);
    }

    #[test]
    fn encoding_roundtrip() {
        let a = Scalar::from_u64(0xABCD_EF01_2345_6789);
        assert_eq!(Scalar::from_canonical_bytes(&a.to_le_bytes()), Some(a));
    }

    #[test]
    fn fermat_inverse_via_pow_chain() {
        // ℓ is prime: a^(ℓ-1) ≡ 1 (mod ℓ). Exercise via repeated squaring
        // on the Scalar API (multiply accumulator).
        let a = Scalar::from_u64(3);
        let (exp, _) = order().overflowing_sub(U256::ONE);
        let mut result = Scalar::ONE;
        let mut base = a;
        for i in 0..exp.bits() {
            if exp.bit(i) {
                result = result.mul(base);
            }
            base = base.mul(base);
        }
        assert_eq!(result, Scalar::ONE);
    }

    /// Checks the folding reduction against `U512::rem` on arbitrary
    /// (not just canonical) inputs.
    mod folding {
        use super::*;
        use proptest::prelude::*;

        fn l_minus_one() -> U256 {
            order().overflowing_sub(U256::ONE).0
        }

        fn two_252() -> U256 {
            U256([0, 0, 0, 1 << 60])
        }

        fn check_wide(x: U512) {
            let mut bytes = [0u8; 64];
            for (i, limb) in x.0.iter().enumerate() {
                bytes[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
            }
            assert_eq!(Scalar::from_wide_bytes(&bytes).0, x.rem(order()), "{x:?}");
        }

        fn check_mul(a: U256, b: U256) {
            let expected = a.mul_mod(b, order());
            assert_eq!(Scalar(a).mul(Scalar(b)).0, expected, "{a:?} * {b:?}");
        }

        #[test]
        fn edge_values_match_reference() {
            let edges = [
                U256::ZERO,
                U256::ONE,
                l_minus_one(),
                order(),
                two_252(),
                U256([u64::MAX; 4]),
            ];
            for &a in &edges {
                for &b in &edges {
                    check_mul(a, b);
                    check_wide(U512([
                        a.0[0], a.0[1], a.0[2], a.0[3], b.0[0], b.0[1], b.0[2], b.0[3],
                    ]));
                }
            }
            check_wide(U512([u64::MAX; 8]));
            check_wide(l_minus_one().widening_mul(l_minus_one()));
            check_wide(order().widening_mul(order()));
            check_wide(two_252().widening_mul(two_252()));
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn wide_reduction_matches_reference(
                low in prop::array::uniform4(any::<u64>()),
                high in prop::array::uniform4(any::<u64>()),
            ) {
                let mut limbs = [0u64; 8];
                limbs[..4].copy_from_slice(&low);
                limbs[4..].copy_from_slice(&high);
                check_wide(U512(limbs));
            }

            #[test]
            fn mul_matches_reference(
                a in prop::array::uniform4(any::<u64>()),
                b in prop::array::uniform4(any::<u64>()),
            ) {
                check_mul(U256(a), U256(b));
            }
        }
    }
}
