//! Complex-index keys — composite keys as ordered component tuples.
//!
//! "GraphBLAS Mathematical Opportunities" extends the source paper's key
//! algebra to **complex-index matrices**: keys that are themselves
//! structured tuples — `ip.port`, `time.bucket`, `doc.section` — whose
//! component order induces a hierarchy, exactly as the octets of an IPv4
//! address do. A [`CxSchema`] describes one such tuple shape and provides
//! the same two encodings [`crate::cidr`] ships for the single-component
//! IP case:
//!
//! * **String keys** for [`Assoc`]: each component rendered at a fixed
//!   width and the components concatenated with `.` separators, so
//!   lexicographic order of the concatenation equals numeric order of
//!   the tuple, and a whole-component prefix is literally a string
//!   prefix (D4M `starts_with` range extraction works unmodified).
//!   Rolled-up keys carry an explicit `/b` suffix (`b` = retained
//!   prefix bits) so aggregate rows can never collide with host rows.
//! * **Numeric keys** for [`Dcsr`]: the components bit-packed into the
//!   low bits of the `u64` index space, first component most
//!   significant. [`CxSchema::mask_ix`] zeroes the bits below a
//!   [`CxPrefix`] — a *monotone non-decreasing* map, so masking a
//!   sorted triple stream keeps it sorted and [`rollup_ctx`] runs in
//!   `O(nnz)` with a single duplicate-⊕-merge pass, recorded under
//!   [`Kernel::Rollup`].
//!
//! A [`CxPrefix`] names a point in the hierarchy: `k` whole leading
//! components plus optionally the high `bits` of the next one (the CIDR
//! `/p` is the one-component instance with a partial 32-bit field —
//! `core::cidr` now delegates here). Projection/rollup along any prefix
//! is idempotent and composes downward (`/a ∘ /ab = /a`), which the
//! `cxkey_props` suite pins over random schemas and data.

use std::time::Instant;

use hypersparse::coo::Coo;
use hypersparse::ctx::{with_default_ctx, OpCtx};
use hypersparse::dcsr::Dcsr;
use hypersparse::metrics::Kernel;
use hypersparse::Ix;
use semiring::traits::{Semiring, Value};

use crate::assoc::Assoc;

/// How one component renders in the string key layer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FieldCodec {
    /// A `bits`-wide unsigned integer, rendered as a zero-padded decimal
    /// of fixed width (enough digits for `2^bits − 1`).
    Dec {
        /// Component width in bits (`1..=64`, total schema ≤ 64).
        bits: u32,
    },
    /// A 32-bit IPv4 address rendered as a zero-padded dotted quad
    /// (`"010.002.003.004"`) — the [`crate::cidr`] string encoding.
    DottedQuad,
}

impl FieldCodec {
    /// Component width in bits.
    pub fn bits(self) -> u32 {
        match self {
            FieldCodec::Dec { bits } => bits,
            FieldCodec::DottedQuad => 32,
        }
    }
}

/// One named component of a composite key.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CxField {
    name: &'static str,
    codec: FieldCodec,
}

impl CxField {
    /// A decimal component `bits` wide.
    pub fn bits(name: &'static str, bits: u32) -> Self {
        CxField {
            name,
            codec: FieldCodec::Dec { bits },
        }
    }

    /// A dotted-quad IPv4 component (32 bits).
    pub fn dotted_quad(name: &'static str) -> Self {
        CxField {
            name,
            codec: FieldCodec::DottedQuad,
        }
    }

    /// The component name (`"ip"`, `"port"`, …).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The component's string-layer codec.
    pub fn codec(&self) -> FieldCodec {
        self.codec
    }
}

/// The low `bits` bits set (`bits ≤ 64`).
#[inline]
fn low_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

fn dec_digits(bits: u32) -> usize {
    // Fixed decimal width of the largest representable value.
    format!("{}", low_mask(bits)).len()
}

/// A point in a composite key's hierarchy: keep the first `fields`
/// whole components plus the high `bits` bits of the next one, zero the
/// rest. The CIDR `/p` is `CxPrefix::partial(0, p)` against the
/// one-component IP schema.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CxPrefix {
    /// Whole leading components retained.
    pub fields: usize,
    /// High bits of the next component retained (0 = component
    /// boundary).
    pub bits: u32,
}

impl CxPrefix {
    /// Retain the first `fields` whole components.
    pub const fn full_fields(fields: usize) -> Self {
        CxPrefix { fields, bits: 0 }
    }

    /// Retain `fields` whole components plus the high `bits` bits of
    /// the next.
    pub const fn partial(fields: usize, bits: u32) -> Self {
        CxPrefix { fields, bits }
    }
}

/// An ordered tuple of named components and both of its key encodings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CxSchema {
    fields: Vec<CxField>,
    /// Low-bit offset of each component in the packed index.
    shifts: Vec<u32>,
    total_bits: u32,
}

impl CxSchema {
    /// Build a schema from its components, first component most
    /// significant.
    ///
    /// # Panics
    /// If there are no components, a component is 0 bits wide, the
    /// total width exceeds the 64-bit index space, or names collide /
    /// contain the `.` and `/` key syntax characters.
    pub fn new(fields: Vec<CxField>) -> Self {
        assert!(!fields.is_empty(), "composite key needs ≥ 1 component");
        let mut seen = std::collections::BTreeSet::new();
        let mut total: u32 = 0;
        for f in &fields {
            assert!(f.codec.bits() >= 1, "component {:?} is 0 bits wide", f.name);
            assert!(
                !f.name.is_empty() && !f.name.contains(['.', '/']),
                "component name {:?} collides with key syntax",
                f.name
            );
            assert!(seen.insert(f.name), "duplicate component {:?}", f.name);
            total = total
                .checked_add(f.codec.bits())
                .expect("component widths overflow");
        }
        assert!(
            total <= 64,
            "composite key is {total} bits; the index space holds 64"
        );
        // First field most significant: its shift is the sum of all
        // later widths.
        let mut shifts = vec![0u32; fields.len()];
        let mut acc = 0u32;
        for (i, f) in fields.iter().enumerate().rev() {
            shifts[i] = acc;
            acc += f.codec.bits();
        }
        CxSchema {
            fields,
            shifts,
            total_bits: total,
        }
    }

    /// The components, most significant first.
    pub fn fields(&self) -> &[CxField] {
        &self.fields
    }

    /// Total packed width in bits. Index bits above this (tenant /
    /// protocol tags) pass through every schema operation untouched.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// How many leading bits `prefix` retains.
    ///
    /// # Panics
    /// If `prefix` names more components than the schema has, or more
    /// partial bits than the next component holds.
    pub fn prefix_bits(&self, prefix: CxPrefix) -> u32 {
        assert!(
            prefix.fields <= self.fields.len(),
            "prefix keeps {} components of {}",
            prefix.fields,
            self.fields.len()
        );
        let whole: u32 = self.fields[..prefix.fields]
            .iter()
            .map(|f| f.codec.bits())
            .sum();
        if prefix.bits == 0 {
            return whole;
        }
        assert!(
            prefix.fields < self.fields.len(),
            "partial bits past the last component"
        );
        let next = self.fields[prefix.fields].codec.bits();
        assert!(
            prefix.bits <= next,
            "prefix keeps {} bits of a {next}-bit component",
            prefix.bits
        );
        whole + prefix.bits
    }

    /// Bit-pack a component tuple into the low [`Self::total_bits`] of
    /// the index space, first component most significant.
    ///
    /// # Panics
    /// On arity mismatch or a component value wider than its field.
    pub fn pack(&self, parts: &[u64]) -> Ix {
        assert_eq!(
            parts.len(),
            self.fields.len(),
            "schema has {} components, got {}",
            self.fields.len(),
            parts.len()
        );
        let mut ix = 0u64;
        for ((f, &shift), &p) in self.fields.iter().zip(&self.shifts).zip(parts) {
            assert!(
                p <= low_mask(f.codec.bits()),
                "component {:?} = {p} exceeds {} bits",
                f.name,
                f.codec.bits()
            );
            ix |= p << shift;
        }
        ix
    }

    /// Unpack the low [`Self::total_bits`] of an index back into its
    /// component tuple (tag bits above the schema are ignored).
    pub fn unpack(&self, ix: Ix) -> Vec<u64> {
        self.fields
            .iter()
            .zip(&self.shifts)
            .map(|(f, &shift)| (ix >> shift) & low_mask(f.codec.bits()))
            .collect()
    }

    /// Zero every index bit below `prefix`. Monotone non-decreasing in
    /// `ix` (it only clears low bits), which is what keeps masked triple
    /// streams sorted and rollups a single merge pass. Bits above
    /// [`Self::total_bits`] pass through untouched.
    pub fn mask_ix(&self, ix: Ix, prefix: CxPrefix) -> Ix {
        let pb = self.prefix_bits(prefix);
        let space = low_mask(self.total_bits);
        let keep = space & !low_mask(self.total_bits - pb);
        (ix & !space) | (ix & keep)
    }

    /// Mask a component tuple to `prefix` resolution.
    pub fn mask_parts(&self, parts: &[u64], prefix: CxPrefix) -> Vec<u64> {
        self.unpack(self.mask_ix(self.pack(parts), prefix))
    }

    /// The fixed-width string key of a component tuple: each component
    /// rendered by its codec, joined with `.`. Zero padding makes
    /// lexicographic order equal numeric tuple order, and the first `k`
    /// components form a literal string prefix of the full key.
    pub fn key(&self, parts: &[u64]) -> String {
        assert_eq!(parts.len(), self.fields.len(), "arity mismatch");
        let mut out = String::new();
        for (f, &p) in self.fields.iter().zip(parts) {
            if !out.is_empty() {
                out.push('.');
            }
            match f.codec {
                FieldCodec::Dec { bits } => {
                    use std::fmt::Write;
                    let _ = write!(out, "{:0w$}", p, w = dec_digits(bits));
                }
                FieldCodec::DottedQuad => {
                    use std::fmt::Write;
                    let [a, b, c, d] = (p as u32).to_be_bytes();
                    let _ = write!(out, "{a:03}.{b:03}.{c:03}.{d:03}");
                }
            }
        }
        out
    }

    /// The key for a rolled-up block: the masked tuple plus an explicit
    /// `/b` suffix (`b` = retained prefix bits), keeping aggregate keys
    /// disjoint from host keys at every resolution. The one-component
    /// IP instance reproduces [`crate::cidr::cidr_key`] exactly.
    pub fn prefix_key(&self, parts: &[u64], prefix: CxPrefix) -> String {
        let b = self.prefix_bits(prefix);
        format!("{}/{b}", self.key(&self.mask_parts(parts, prefix)))
    }

    /// Parse a key produced by [`Self::key`] or [`Self::prefix_key`]
    /// back into its component tuple. Component values may be unpadded
    /// (`"10.2.3.4.80"` parses against `ip.port`). An optional `/b`
    /// suffix is validated — `b` must be a plain decimal ≤
    /// [`Self::total_bits`] with no further `/` segments — but not
    /// applied (the returned tuple is the written one, mirroring
    /// [`crate::cidr::parse_ip_key`]). Returns `None` for malformed
    /// input: wrong arity, non-digit characters, overwide components,
    /// or a bad suffix.
    pub fn parse_key(&self, key: &str) -> Option<Vec<u64>> {
        let mut slash = key.split('/');
        let body = slash.next()?;
        if let Some(suffix) = slash.next() {
            if slash.next().is_some() {
                return None; // more than one '/' segment
            }
            if suffix.is_empty() || !suffix.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            let b: u32 = suffix.parse().ok()?;
            if b > self.total_bits {
                return None;
            }
        }
        let mut segs = body.split('.');
        let mut dec = |width: u32| -> Option<u64> {
            let seg = segs.next()?;
            if seg.is_empty() || !seg.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            let v: u64 = seg.parse().ok()?;
            (v <= low_mask(width)).then_some(v)
        };
        let mut parts = Vec::with_capacity(self.fields.len());
        for f in &self.fields {
            let p = match f.codec {
                FieldCodec::Dec { bits } => dec(bits)?,
                FieldCodec::DottedQuad => {
                    let mut ip = 0u64;
                    for _ in 0..4 {
                        ip = (ip << 8) | dec(8)?;
                    }
                    ip
                }
            };
            parts.push(p);
        }
        if segs.next().is_some() {
            return None; // trailing components
        }
        Some(parts)
    }
}

/// Which dimensions a [`rollup_ctx`] collapses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RollupAxes {
    /// Mask row keys only.
    Rows,
    /// Mask column keys only.
    Cols,
    /// Mask both dimensions.
    Both,
}

/// Project the row keys of a composite-keyed associative array onto
/// `prefix`. Rows landing in the same block ⊕-combine (the
/// [`Assoc::map_row_keys`] collision semantics). Keys that don't parse
/// against the schema pass through unchanged, so already-rolled-up rows
/// (whose `/b` suffix re-parses) and foreign rows coexist; the
/// operation is idempotent at a fixed prefix and composes downward.
pub fn project_rows<K2, T, S>(
    schema: &CxSchema,
    a: &Assoc<String, K2, T>,
    prefix: CxPrefix,
    s: S,
) -> Assoc<String, K2, T>
where
    K2: crate::key::Key,
    T: Value,
    S: Semiring<Value = T>,
{
    a.map_row_keys(
        |k| {
            schema
                .parse_key(k)
                .map_or_else(|| k.clone(), |parts| schema.prefix_key(&parts, prefix))
        },
        s,
    )
}

/// Project the column keys onto `prefix`; see [`project_rows`].
pub fn project_cols<K1, T, S>(
    schema: &CxSchema,
    a: &Assoc<K1, String, T>,
    prefix: CxPrefix,
    s: S,
) -> Assoc<K1, String, T>
where
    K1: crate::key::Key,
    T: Value,
    S: Semiring<Value = T>,
{
    a.map_col_keys(
        |k| {
            schema
                .parse_key(k)
                .map_or_else(|| k.clone(), |parts| schema.prefix_key(&parts, prefix))
        },
        s,
    )
}

/// Project both key dimensions onto `prefix`: the block-to-block rollup
/// of a composite-keyed matrix.
pub fn project<T, S>(
    schema: &CxSchema,
    a: &Assoc<String, String, T>,
    prefix: CxPrefix,
    s: S,
) -> Assoc<String, String, T>
where
    T: Value,
    S: Semiring<Value = T> + Copy,
{
    project_cols(schema, &project_rows(schema, a, prefix, s), prefix, s)
}

/// Roll a `Dcsr` up to `prefix` resolution: mask the selected key
/// dimensions with [`CxSchema::mask_ix`] and ⊕-merge entries landing on
/// the same cell. `O(nnz)` — masking is monotone, so the triple stream
/// stays sorted and the COO build's duplicate merge is a single pass.
/// Records under [`Kernel::Rollup`].
pub fn rollup_ctx<T, S>(
    ctx: &OpCtx,
    schema: &CxSchema,
    a: &Dcsr<T>,
    prefix: CxPrefix,
    axes: RollupAxes,
    s: S,
) -> Dcsr<T>
where
    T: Value,
    S: Semiring<Value = T>,
{
    let _span = ctx.kernel_span(Kernel::Rollup, || {
        format!(
            "/{} {axes:?} over {} nnz",
            schema.prefix_bits(prefix),
            a.nnz()
        )
    });
    let start = Instant::now();
    let (mask_r, mask_c) = match axes {
        RollupAxes::Rows => (true, false),
        RollupAxes::Cols => (false, true),
        RollupAxes::Both => (true, true),
    };
    let mut coo = Coo::new(a.nrows(), a.ncols());
    coo.extend(a.iter().map(|(r, c, v)| {
        (
            if mask_r { schema.mask_ix(r, prefix) } else { r },
            if mask_c { schema.mask_ix(c, prefix) } else { c },
            v.clone(),
        )
    }));
    let out = coo.build_dcsr(s);
    ctx.metrics().record(
        Kernel::Rollup,
        start.elapsed(),
        a.nnz() as u64,
        out.nnz() as u64,
        a.nnz() as u64,
        (a.bytes() + out.bytes()) as u64,
    );
    out
}

/// [`rollup_ctx`] through the thread-local default context.
pub fn rollup<T, S>(
    schema: &CxSchema,
    a: &Dcsr<T>,
    prefix: CxPrefix,
    axes: RollupAxes,
    s: S,
) -> Dcsr<T>
where
    T: Value,
    S: Semiring<Value = T>,
{
    with_default_ctx(|ctx| rollup_ctx(ctx, schema, a, prefix, axes, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use semiring::PlusTimes;

    fn socket() -> CxSchema {
        CxSchema::new(vec![CxField::dotted_quad("ip"), CxField::bits("port", 16)])
    }

    fn doc() -> CxSchema {
        CxSchema::new(vec![
            CxField::bits("doc", 24),
            CxField::bits("section", 8),
            CxField::bits("para", 8),
        ])
    }

    #[test]
    fn pack_unpack_round_trips_and_orders() {
        let s = socket();
        assert_eq!(s.total_bits(), 48);
        let ix = s.pack(&[0x0A020304, 443]);
        assert_eq!(ix, (0x0A020304u64 << 16) | 443);
        assert_eq!(s.unpack(ix), vec![0x0A020304, 443]);
        // Packed order is tuple order: ip dominates, port breaks ties.
        assert!(s.pack(&[5, 9]) < s.pack(&[6, 0]));
        assert!(s.pack(&[5, 9]) < s.pack(&[5, 10]));
    }

    #[test]
    fn string_keys_sort_like_tuples_and_round_trip() {
        let sch = socket();
        let key = sch.key(&[0x0A020304, 80]);
        assert_eq!(key, "010.002.003.004.00080");
        assert_eq!(sch.parse_key(&key), Some(vec![0x0A020304, 80]));
        assert_eq!(sch.parse_key("10.2.3.4.80"), Some(vec![0x0A020304, 80]));
        let mut tuples = [[9u64, 65535], [10, 0], [9, 70000 - 65535], [255, 1]];
        tuples.sort();
        let mut keys: Vec<String> = tuples.iter().map(|t| sch.key(t)).collect();
        let sorted = keys.clone();
        keys.sort();
        assert_eq!(keys, sorted, "lexicographic = numeric tuple order");
        // Whole-component prefixes are string prefixes.
        assert!(sch.key(&[0x0A020304, 80]).starts_with("010.002.003.004"));
    }

    #[test]
    fn parse_rejects_malformed_keys() {
        let sch = socket();
        assert_eq!(sch.parse_key("10.2.3.4"), None); // missing port
        assert_eq!(sch.parse_key("10.2.3.4.80.9"), None); // trailing
        assert_eq!(sch.parse_key("10.2.3.4.70000"), None); // port > 16 bits
        assert_eq!(sch.parse_key("10.2.3.400.80"), None); // octet > 255
        assert_eq!(sch.parse_key("10.2.3.4.+80"), None); // sign chars
        assert_eq!(sch.parse_key("10.2.3.4.80/49"), None); // suffix > 48
        assert_eq!(sch.parse_key("10.2.3.4.80/32/8"), None); // extra '/'
        assert_eq!(sch.parse_key("10.2.3.4.80/"), None); // empty suffix
        assert_eq!(sch.parse_key("10.2.3.4.80/48"), Some(vec![0x0A020304, 80]));
    }

    #[test]
    fn masking_is_monotone_and_composes_downward() {
        let sch = socket();
        let ip_only = CxPrefix::full_fields(1);
        let slash16 = CxPrefix::partial(0, 16);
        let ix = sch.pack(&[0x0A020304, 443]);
        assert_eq!(sch.mask_ix(ix, ip_only), 0x0A020304u64 << 16);
        assert_eq!(sch.mask_ix(ix, slash16), 0x0A020000u64 << 16);
        // /a ∘ /ab = /a on the bit layer.
        assert_eq!(
            sch.mask_ix(sch.mask_ix(ix, ip_only), slash16),
            sch.mask_ix(ix, slash16)
        );
        // Monotone over a sorted sample; tag bits above 48 survive.
        let mut prev = 0u64;
        for raw in [0u64, 5, 1 << 20, 0xABCD_1234_5678, (1 << 48) - 1] {
            assert!(sch.mask_ix(raw, ip_only) >= prev);
            prev = sch.mask_ix(raw, ip_only);
        }
        let tagged = (7u64 << 48) | ix;
        assert_eq!(sch.mask_ix(tagged, slash16) >> 48, 7);
    }

    #[test]
    fn prefix_keys_carry_bit_suffix() {
        let sch = socket();
        assert_eq!(
            sch.prefix_key(&[0x0A020304, 443], CxPrefix::full_fields(1)),
            "010.002.003.004.00000/32"
        );
        assert_eq!(
            sch.prefix_key(&[0x0A020304, 443], CxPrefix::partial(0, 16)),
            "010.002.000.000.00000/16"
        );
        let d = doc();
        assert_eq!(
            d.prefix_key(&[7, 3, 9], CxPrefix::full_fields(2)),
            "00000007.003.000/32"
        );
    }

    #[test]
    fn assoc_projection_aggregates_and_is_idempotent() {
        let s = PlusTimes::<f64>::new();
        let sch = socket();
        let a = Assoc::from_triplets(
            vec![
                (sch.key(&[10, 80]), sch.key(&[20, 443]), 2.0),
                (sch.key(&[10, 8080]), sch.key(&[20, 443]), 3.0),
                (sch.key(&[11, 80]), sch.key(&[21, 22]), 1.0),
            ],
            s,
        );
        let ip_only = CxPrefix::full_fields(1);
        let p = project(&sch, &a, ip_only, s);
        // Both port-80/8080 flows from host 10 fold into one ip row.
        assert_eq!(
            p.get(
                &sch.prefix_key(&[10, 0], ip_only),
                &sch.prefix_key(&[20, 0], ip_only)
            ),
            Some(5.0)
        );
        assert_eq!(p.nnz(), 2);
        assert_eq!(project(&sch, &p, ip_only, s), p);
    }

    #[test]
    fn dcsr_rollup_merges_blocks() {
        let s = PlusTimes::<u64>::new();
        let sch = socket();
        let mut coo = Coo::new(1 << 48, 1 << 48);
        coo.extend([
            (sch.pack(&[10, 80]), sch.pack(&[20, 443]), 2u64),
            (sch.pack(&[10, 8080]), sch.pack(&[20, 443]), 3),
            (sch.pack(&[11, 80]), sch.pack(&[21, 22]), 1),
        ]);
        let a = coo.build_dcsr(s);
        let ip_only = CxPrefix::full_fields(1);
        let r = rollup(&sch, &a, ip_only, RollupAxes::Both, s);
        assert_eq!(r.nnz(), 2);
        assert_eq!(r.get(10 << 16, 20 << 16).copied(), Some(5));
        let rr = rollup(&sch, &r, ip_only, RollupAxes::Both, s);
        assert!(rr.iter().eq(r.iter()), "rollup is idempotent");
        // Downward composition through a partial prefix.
        let via_ip = rollup(&sch, &r, CxPrefix::partial(0, 8), RollupAxes::Both, s);
        let direct = rollup(&sch, &a, CxPrefix::partial(0, 8), RollupAxes::Both, s);
        assert!(via_ip.iter().eq(direct.iter()), "/a ∘ /ab = /a");
    }

    #[test]
    fn rollup_records_kernel_metrics() {
        let s = PlusTimes::<u64>::new();
        let sch = doc();
        let mut coo = Coo::new(1 << 40, 1 << 40);
        coo.extend([(sch.pack(&[1, 2, 3]), sch.pack(&[4, 5, 6]), 1u64)]);
        let a = coo.build_dcsr(s);
        let ctx = OpCtx::new();
        let _ = rollup_ctx(
            &ctx,
            &sch,
            &a,
            CxPrefix::full_fields(1),
            RollupAxes::Both,
            s,
        );
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.kernel(Kernel::Rollup).calls, 1);
    }

    #[test]
    #[should_panic(expected = "index space holds 64")]
    fn overwide_schemas_are_rejected() {
        let _ = CxSchema::new(vec![
            CxField::dotted_quad("src"),
            CxField::dotted_quad("dst"),
            CxField::bits("port", 16),
        ]);
    }

    #[test]
    #[should_panic(expected = "prefix keeps")]
    fn overlong_partial_prefixes_are_rejected() {
        let sch = socket();
        let _ = sch.prefix_bits(CxPrefix::partial(1, 17));
    }
}
