//! Hierarchical CIDR keys — IPv4 addresses as a sortable, projectable
//! key space.
//!
//! The paper's headline deployment keys traffic matrices by IP address,
//! and the power of the associative-array representation is that the
//! *hierarchy* of the address space (host ⊂ /24 ⊂ /16 ⊂ /8) becomes
//! ordinary key algebra. Since PR 10 this module is the one-component
//! instance of the general complex-index layer ([`crate::cxkey`]): the
//! schema is a single dotted-quad component, and every key operation
//! delegates to [`CxSchema`] against it. Two encodings, one per layer of
//! the stack:
//!
//! * **String keys** for [`Assoc`]: zero-padded dotted quads
//!   (`"010.002.003.004"`) so lexicographic order equals numeric order
//!   and a `/p` prefix is literally a string prefix — D4M-style
//!   `starts_with` range extraction works unmodified. [`cidr_key`]
//!   appends an explicit `/p` suffix to rolled-up keys
//!   (`"010.002.000.000/16"`) so host rows and aggregate rows can never
//!   collide in one dictionary.
//! * **Numeric keys** for [`Dcsr`]: the address in the low 32 bits of a
//!   `u64` index. [`mask_ix`] zeroes host bits — a *monotone
//!   non-decreasing* map, so masking a sorted triple stream keeps it
//!   sorted and the rollup kernels run in `O(nnz)` with a single
//!   duplicate-⊕-merge pass, recorded under
//!   [`hypersparse::metrics::Kernel::Rollup`].
//!
//! Both projections are idempotent — rolling up to `/p` twice is the
//! identity the second time — and both compose downward
//! (`/8 ∘ /16 = /8`), which is what makes multi-resolution traffic
//! analysis a chain of cheap re-keyings rather than re-ingests.

use std::sync::OnceLock;

use hypersparse::ctx::{with_default_ctx, OpCtx};
use hypersparse::dcsr::Dcsr;
use hypersparse::Ix;
use semiring::traits::{Semiring, Value};

use crate::assoc::Assoc;
use crate::cxkey::{self, CxField, CxPrefix, CxSchema};

pub use crate::cxkey::RollupAxes;

/// A CIDR prefix length. `/0` through `/32` cover the full range:
/// `/32` is the identity (host granularity), `/8`–`/24` are the rollup
/// resolutions named in the deployment papers, `/0` folds the whole
/// address space into one block.
pub type PrefixLen = u8;

/// The one-component schema CIDR keys live in: a single 32-bit
/// dotted-quad field named `ip`. Every function in this module is the
/// [`crate::cxkey`] operation against this schema at
/// `CxPrefix::partial(0, p)`.
pub fn ip_schema() -> &'static CxSchema {
    static SCHEMA: OnceLock<CxSchema> = OnceLock::new();
    SCHEMA.get_or_init(|| CxSchema::new(vec![CxField::dotted_quad("ip")]))
}

#[inline]
fn prefix_of(prefix: PrefixLen) -> CxPrefix {
    assert!(prefix <= 32, "IPv4 prefix length must be ≤ 32");
    CxPrefix::partial(0, u32::from(prefix))
}

/// Zero the host bits of a matrix index. Addresses live in the low 32
/// bits of the `u64` key space; any high bits (tenant / protocol tags)
/// pass through untouched. Monotone non-decreasing in `ix`, which is
/// what lets the rollup kernels preserve sortedness.
#[inline]
pub fn mask_ix(ix: Ix, prefix: PrefixLen) -> Ix {
    ip_schema().mask_ix(ix, prefix_of(prefix))
}

/// Pack four octets into an address, `a` most significant.
#[inline]
pub fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
    u32::from_be_bytes([a, b, c, d])
}

/// The zero-padded dotted-quad key for an address:
/// `ip_key(0x0A020304)` → `"010.002.003.004"`. Padding makes
/// lexicographic string order agree with numeric address order, so the
/// key dictionary of an [`Assoc`] sorts addresses correctly and CIDR
/// blocks are contiguous key ranges.
pub fn ip_key(ip: u32) -> String {
    ip_schema().key(&[u64::from(ip)])
}

/// The key for a CIDR block: the masked address plus an explicit
/// `/prefix` suffix — `cidr_key(0x0A020304, 16)` →
/// `"010.002.000.000/16"`. The suffix keeps aggregate keys disjoint
/// from host keys (`/32` included, for uniformity of rolled-up arrays).
pub fn cidr_key(ip: u32, prefix: PrefixLen) -> String {
    ip_schema().prefix_key(&[u64::from(ip)], prefix_of(prefix))
}

/// Parse a key produced by [`ip_key`] or [`cidr_key`] back to the
/// address. Unpadded quads (`"10.2.3.4"`) parse too. An optional
/// `/prefix` suffix is validated — it must be a single plain-decimal
/// segment ≤ 32 — but not applied to the returned address. Returns
/// `None` for malformed input, including out-of-range prefixes
/// (`"1.2.3.4/99"`) and extra `/` segments (`"1.2.3.4/16/8"`).
pub fn parse_ip_key(key: &str) -> Option<u32> {
    let parts = ip_schema().parse_key(key)?;
    Some(parts[0] as u32)
}

/// Project the row keys of an IP-keyed associative array onto a CIDR
/// prefix. Rows falling in the same block ⊕-combine (the
/// [`Assoc::map_row_keys`] collision semantics), so the result is the
/// traffic matrix at `/prefix` resolution. Idempotent: projecting an
/// already-projected array at the same (or coarser→same) prefix is the
/// identity on values.
pub fn project_rows<K2, T, S>(
    a: &Assoc<String, K2, T>,
    prefix: PrefixLen,
    s: S,
) -> Assoc<String, K2, T>
where
    K2: crate::key::Key,
    T: Value,
    S: Semiring<Value = T>,
{
    cxkey::project_rows(ip_schema(), a, prefix_of(prefix), s)
}

/// Project the column keys onto a CIDR prefix; see [`project_rows`].
pub fn project_cols<K1, T, S>(
    a: &Assoc<K1, String, T>,
    prefix: PrefixLen,
    s: S,
) -> Assoc<K1, String, T>
where
    K1: crate::key::Key,
    T: Value,
    S: Semiring<Value = T>,
{
    cxkey::project_cols(ip_schema(), a, prefix_of(prefix), s)
}

/// Project both key dimensions onto a CIDR prefix: the full
/// block-to-block rollup of a traffic matrix.
pub fn project<T, S>(
    a: &Assoc<String, String, T>,
    prefix: PrefixLen,
    s: S,
) -> Assoc<String, String, T>
where
    T: Value,
    S: Semiring<Value = T> + Copy,
{
    cxkey::project(ip_schema(), a, prefix_of(prefix), s)
}

/// Roll a `Dcsr` up to CIDR-block resolution: mask the selected key
/// dimensions with [`mask_ix`] and ⊕-merge entries that land on the
/// same cell. `O(nnz)` — masking is monotone so the triple stream stays
/// sorted and the COO build's duplicate merge is a single pass. Records
/// under [`hypersparse::metrics::Kernel::Rollup`].
pub fn rollup_ctx<T, S>(
    ctx: &OpCtx,
    a: &Dcsr<T>,
    prefix: PrefixLen,
    axes: RollupAxes,
    s: S,
) -> Dcsr<T>
where
    T: Value,
    S: Semiring<Value = T>,
{
    cxkey::rollup_ctx(ctx, ip_schema(), a, prefix_of(prefix), axes, s)
}

/// [`rollup_ctx`] through the thread-local default context.
pub fn rollup<T, S>(a: &Dcsr<T>, prefix: PrefixLen, axes: RollupAxes, s: S) -> Dcsr<T>
where
    T: Value,
    S: Semiring<Value = T>,
{
    with_default_ctx(|ctx| rollup_ctx(ctx, a, prefix, axes, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersparse::coo::Coo;
    use hypersparse::metrics::Kernel;
    use semiring::PlusTimes;

    /// The netmask for a prefix length: high `p` bits set.
    fn netmask(prefix: PrefixLen) -> u32 {
        assert!(prefix <= 32, "IPv4 prefix length must be ≤ 32");
        if prefix == 0 {
            0
        } else {
            u32::MAX << (32 - prefix)
        }
    }

    /// Zero the host bits of an address with plain bit math: `10.2.3.4`
    /// at `/16` → `10.2.0.0`. The oracle [`mask_ix`] is held to.
    fn mask_ip(ip: u32, prefix: PrefixLen) -> u32 {
        ip & netmask(prefix)
    }

    #[test]
    fn keys_sort_numerically_and_round_trip() {
        let addrs = [
            ip(10, 2, 3, 4),
            ip(9, 255, 0, 1),
            ip(192, 168, 1, 1),
            ip(10, 2, 3, 200),
        ];
        let mut keys: Vec<String> = addrs.iter().map(|&a| ip_key(a)).collect();
        keys.sort();
        let mut sorted = addrs.to_vec();
        sorted.sort();
        assert_eq!(keys, sorted.iter().map(|&a| ip_key(a)).collect::<Vec<_>>());
        for &a in &addrs {
            assert_eq!(parse_ip_key(&ip_key(a)), Some(a));
            assert_eq!(parse_ip_key(&cidr_key(a, 16)), Some(mask_ip(a, 16)));
        }
        assert_eq!(parse_ip_key("10.2.3.4"), Some(ip(10, 2, 3, 4)));
        assert_eq!(parse_ip_key("10.2.3"), None);
        assert_eq!(parse_ip_key("10.2.3.4.5"), None);
        assert_eq!(parse_ip_key("not-an-ip"), None);
    }

    #[test]
    fn malformed_prefix_suffixes_are_rejected() {
        // Regression: these parsed before the suffix was validated.
        assert_eq!(parse_ip_key("1.2.3.4/99"), None);
        assert_eq!(parse_ip_key("1.2.3.4/16/8"), None);
        // Edges of the valid range still parse; junk suffixes don't.
        assert_eq!(parse_ip_key("1.2.3.4/0"), Some(ip(1, 2, 3, 4)));
        assert_eq!(parse_ip_key("1.2.3.4/32"), Some(ip(1, 2, 3, 4)));
        assert_eq!(parse_ip_key("1.2.3.4/33"), None);
        assert_eq!(parse_ip_key("1.2.3.4/"), None);
        assert_eq!(parse_ip_key("1.2.3.4/+8"), None);
        assert_eq!(parse_ip_key("1.2.3.4/p"), None);
        assert_eq!(parse_ip_key("1.2.3.400"), None);
    }

    #[test]
    fn masking_is_monotone_and_composes_downward() {
        assert_eq!(mask_ip(ip(10, 2, 3, 4), 24), ip(10, 2, 3, 0));
        assert_eq!(mask_ip(ip(10, 2, 3, 4), 8), ip(10, 0, 0, 0));
        assert_eq!(mask_ip(ip(10, 2, 3, 4), 32), ip(10, 2, 3, 4));
        assert_eq!(mask_ip(ip(10, 2, 3, 4), 0), 0);
        // /8 ∘ /16 = /8, and monotonicity over a sorted sample.
        let a = ip(10, 2, 3, 4);
        assert_eq!(mask_ip(mask_ip(a, 16), 8), mask_ip(a, 8));
        let mut prev = 0u64;
        for raw in [0u64, 5, 1 << 10, 0xFFFF, 0xABCD_1234, u32::MAX as u64] {
            assert!(mask_ix(raw, 16) >= prev);
            prev = mask_ix(raw, 16);
        }
        // High tag bits survive masking.
        let tagged = (7u64 << 32) | u64::from(ip(10, 2, 3, 4));
        assert_eq!(tagged & !0xFFFF_FFFF, mask_ix(tagged, 8) & !0xFFFF_FFFF);
    }

    #[test]
    fn mask_ix_agrees_with_mask_ip_at_every_prefix() {
        // The delegation to cxkey must reproduce the specialized bit
        // math bit-for-bit, /0 and /32 included.
        for prefix in 0..=32u8 {
            for raw in [0u32, 1, ip(10, 2, 3, 4), ip(255, 255, 255, 255)] {
                assert_eq!(
                    mask_ix(u64::from(raw), prefix),
                    u64::from(mask_ip(raw, prefix)),
                    "/{prefix} on {raw:#x}"
                );
            }
        }
    }

    #[test]
    fn assoc_projection_aggregates_and_is_idempotent() {
        let s = PlusTimes::<f64>::new();
        let a = Assoc::from_triplets(
            vec![
                (ip_key(ip(10, 2, 3, 4)), ip_key(ip(192, 168, 0, 1)), 2.0),
                (ip_key(ip(10, 2, 9, 9)), ip_key(ip(192, 168, 0, 1)), 3.0),
                (ip_key(ip(11, 0, 0, 1)), ip_key(ip(192, 168, 0, 2)), 1.0),
            ],
            s,
        );
        let p = project(&a, 16, s);
        // The two 10.2.*.* sources merged into one /16 block row.
        assert_eq!(
            p.get(
                &cidr_key(ip(10, 2, 0, 0), 16),
                &cidr_key(ip(192, 168, 0, 0), 16)
            ),
            Some(5.0)
        );
        assert_eq!(p.nnz(), 2);
        // Idempotence: projecting again at /16 changes nothing.
        assert_eq!(project(&p, 16, s), p);
    }

    #[test]
    fn dcsr_rollup_merges_blocks_in_place() {
        let s = PlusTimes::<f64>::new();
        let mut coo = Coo::new(1 << 32, 1 << 32);
        coo.extend([
            (
                u64::from(ip(10, 2, 3, 4)),
                u64::from(ip(192, 168, 0, 1)),
                2.0,
            ),
            (
                u64::from(ip(10, 2, 9, 9)),
                u64::from(ip(192, 168, 0, 1)),
                3.0,
            ),
            (
                u64::from(ip(11, 0, 0, 1)),
                u64::from(ip(192, 168, 0, 2)),
                1.0,
            ),
        ]);
        let a = coo.build_dcsr(s);
        let r = rollup(&a, 16, RollupAxes::Both, s);
        assert_eq!(r.nnz(), 2);
        assert_eq!(
            r.get(u64::from(ip(10, 2, 0, 0)), u64::from(ip(192, 168, 0, 0)))
                .copied(),
            Some(5.0)
        );
        // Idempotent on the Dcsr layer too.
        let rr = rollup(&r, 16, RollupAxes::Both, s);
        assert_eq!(rr.nnz(), r.nnz());
        assert!(rr.iter().eq(r.iter()));

        // Rows-only rollup leaves destinations at host granularity.
        let rows = rollup(&a, 16, RollupAxes::Rows, s);
        assert_eq!(
            rows.get(u64::from(ip(10, 2, 0, 0)), u64::from(ip(192, 168, 0, 1)))
                .copied(),
            Some(5.0)
        );
    }

    #[test]
    fn slash_zero_folds_everything_and_stays_idempotent() {
        // The /0 path end-to-end: netmask → mask_ix → rollup → project.
        assert_eq!(netmask(0), 0);
        assert_eq!(mask_ix(u64::from(ip(203, 0, 113, 9)), 0), 0);
        assert_eq!(cidr_key(ip(203, 0, 113, 9), 0), "000.000.000.000/0");
        assert_eq!(parse_ip_key("000.000.000.000/0"), Some(0));

        let s = PlusTimes::<u64>::new();
        let mut coo = Coo::new(1 << 32, 1 << 32);
        coo.extend([
            (u64::from(ip(10, 2, 3, 4)), u64::from(ip(192, 168, 0, 1)), 2),
            (u64::from(ip(11, 0, 0, 1)), u64::from(ip(8, 8, 8, 8)), 3),
            (u64::from(ip(255, 255, 255, 255)), 0, 5),
        ]);
        let a = coo.build_dcsr(s);
        // One row, one column, one cell holding the whole key space.
        let r = rollup(&a, 0, RollupAxes::Both, s);
        assert_eq!(r.nnz(), 1);
        assert_eq!(r.get(0, 0).copied(), Some(10));
        let rr = rollup(&r, 0, RollupAxes::Both, s);
        assert!(rr.iter().eq(r.iter()), "/0 rollup must be idempotent");

        // String layer: every row folds into the single /0 block.
        let assoc = Assoc::from_triplets(
            vec![
                (ip_key(ip(10, 2, 3, 4)), ip_key(ip(192, 168, 0, 1)), 2u64),
                (ip_key(ip(11, 0, 0, 1)), ip_key(ip(8, 8, 8, 8)), 3),
            ],
            s,
        );
        let p = project(&assoc, 0, s);
        assert_eq!(p.nnz(), 1);
        assert_eq!(
            p.get(
                &"000.000.000.000/0".to_string(),
                &"000.000.000.000/0".to_string()
            ),
            Some(5)
        );
        assert_eq!(project(&p, 0, s), p, "/0 projection must be idempotent");
    }

    #[test]
    fn rollup_records_kernel_metrics() {
        let s = PlusTimes::<f64>::new();
        let ctx = OpCtx::new();
        let mut coo = Coo::new(1 << 32, 1 << 32);
        coo.extend([(u64::from(ip(10, 0, 0, 1)), u64::from(ip(10, 0, 0, 2)), 1.0)]);
        let a = coo.build_dcsr(s);
        let _ = rollup_ctx(&ctx, &a, 8, RollupAxes::Both, s);
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.kernel(Kernel::Rollup).calls, 1);
        assert_eq!(snap.kernel(Kernel::Rollup).nnz_in, 1);
    }
}
