//! Socket-resolution flow keys — the `ip.port` complex index.
//!
//! PR 10's complex-index layer ([`hyperspace_core::cxkey`]) generalizes
//! the CIDR hierarchy to composite keys; this module is its demo
//! consumer. Traffic is keyed by **socket** — the ordered pair
//! `(address, port)` packed as the 48-bit composite `ip.port` — so the
//! same window of packets answers questions at three resolutions with
//! nothing but key algebra:
//!
//! * **socket × socket** (who talks to which service, which ephemeral
//!   port): the native matrix this module builds;
//! * **host × host**: [`host_rollup`] projects the port component away
//!   with one monotone `O(nnz)` ⊕-merge ([`cxkey::rollup_ctx`] at
//!   [`CxPrefix::full_fields`]`(1)`) and re-bases the index space, and
//!   is proven equal to building the `ip × ip` matrix directly;
//! * **CIDR blocks**: further prefixes (`/16` on the address bits) keep
//!   composing downward, exactly as in [`hyperspace_core::cidr`].
//!
//! String keys round-trip through the same schema
//! (`"010.000.000.007.00443"`), so `Assoc`-layer drill-downs sort and
//! range-extract sockets lexicographically, numerically, and
//! hierarchically all at once.

use std::sync::OnceLock;

use hyperspace_core::cxkey::{self, CxField, CxPrefix, CxSchema, RollupAxes};
use hypersparse::ctx::{with_default_ctx, OpCtx};
use hypersparse::ops::{reduce_rows_ctx, top_k_ctx};
use hypersparse::{Coo, Dcsr, Ix};
use semiring::traits::AddMonoidOf;

use crate::TrafficSemiring;

/// One socket-resolution flow event:
/// `(src_ip, src_port, dst_ip, dst_port, packets)`.
pub type SocketFlowEvent = (u32, u16, u32, u16, u64);

/// The socket key space: 32 address bits above 16 port bits.
pub const SOCKET_SPACE: Ix = 1 << 48;

/// The two-component socket schema: a dotted-quad `ip` field over a
/// 16-bit `port` field. Address bits sit above port bits, so sorted
/// socket order groups every port of a host together and CIDR prefixes
/// of the address are index prefixes of the composite.
pub fn socket_schema() -> &'static CxSchema {
    static SCHEMA: OnceLock<CxSchema> = OnceLock::new();
    SCHEMA
        .get_or_init(|| CxSchema::new(vec![CxField::dotted_quad("ip"), CxField::bits("port", 16)]))
}

/// Pack a socket into its 48-bit composite index.
#[inline]
pub fn socket_ix(ip: u32, port: u16) -> Ix {
    socket_schema().pack(&[u64::from(ip), u64::from(port)])
}

/// Unpack a composite index back to `(ip, port)`.
#[inline]
pub fn socket_parts(ix: Ix) -> (u32, u16) {
    let parts = socket_schema().unpack(ix);
    (parts[0] as u32, parts[1] as u16)
}

/// The sortable string key of a socket: `"010.000.000.007.00443"`.
pub fn socket_key(ip: u32, port: u16) -> String {
    socket_schema().key(&[u64::from(ip), u64::from(port)])
}

/// Build the socket × socket traffic matrix of one window's events:
/// `A(src_socket, dst_socket) = packets`, duplicate flows ⊕-merged
/// under the traffic semiring.
pub fn socket_matrix(events: &[SocketFlowEvent]) -> Dcsr<u64> {
    let mut coo = Coo::new(SOCKET_SPACE, SOCKET_SPACE);
    coo.extend(
        events
            .iter()
            .map(|&(si, sp, di, dp, pk)| (socket_ix(si, sp), socket_ix(di, dp), pk)),
    );
    coo.build_dcsr(TrafficSemiring::new())
}

/// Roll a socket matrix down to host resolution: project the `port`
/// component away on both axes (one monotone `O(nnz)` ⊕-merge under
/// `Kernel::Rollup`), then re-base indices from `ip << 16` to plain
/// `ip` so the result lives in the `ip × ip` space every CIDR and
/// detector path already speaks. The shift is monotone, so the re-base
/// is a sorted streaming rebuild, not a re-sort.
pub fn host_rollup_ctx(ctx: &OpCtx, a: &Dcsr<u64>) -> Dcsr<u64> {
    let s = TrafficSemiring::new();
    let hosts = cxkey::rollup_ctx(
        ctx,
        socket_schema(),
        a,
        CxPrefix::full_fields(1),
        RollupAxes::Both,
        s,
    );
    let port_bits = socket_schema().total_bits() - 32;
    let mut coo = Coo::new(crate::IP_SPACE, crate::IP_SPACE);
    coo.extend(
        hosts
            .iter()
            .map(|(r, c, v)| (r >> port_bits, c >> port_bits, *v)),
    );
    coo.build_dcsr(s)
}

/// [`host_rollup_ctx`] through the thread-local default context.
pub fn host_rollup(a: &Dcsr<u64>) -> Dcsr<u64> {
    with_default_ctx(|ctx| host_rollup_ctx(ctx, a))
}

/// The `k` busiest source sockets by total packets sent: ⊕-reduce the
/// socket matrix's rows, top-k the folds, unpack the winners back to
/// `(ip, port, packets)`. Deterministic: ties break toward the smaller
/// socket index (lower address, then lower port).
pub fn top_sockets_ctx(ctx: &OpCtx, a: &Dcsr<u64>, k: usize) -> Vec<(u32, u16, u64)> {
    let m = AddMonoidOf(TrafficSemiring::new());
    let reduced = reduce_rows_ctx(ctx, a, m);
    top_k_ctx(ctx, &reduced, k)
        .into_iter()
        .map(|(ix, pk)| {
            let (ip, port) = socket_parts(ix);
            (ip, port, pk)
        })
        .collect()
}

/// [`top_sockets_ctx`] through the thread-local default context.
pub fn top_sockets(a: &Dcsr<u64>, k: usize) -> Vec<(u32, u16, u64)> {
    with_default_ctx(|ctx| top_sockets_ctx(ctx, a, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GenConfig, TrafficGen};
    use hyperspace_core::cidr;
    use hypersparse::metrics::Kernel;

    fn sample_events() -> Vec<SocketFlowEvent> {
        let web = cidr::ip(10, 0, 0, 7);
        let db = cidr::ip(10, 0, 1, 9);
        let client = cidr::ip(10, 2, 3, 4);
        vec![
            (client, 50_001, web, 443, 10),
            (client, 50_002, web, 443, 5), // same hosts, new src port
            (client, 50_001, web, 80, 2),  // same hosts, new dst port
            (web, 33_000, db, 5432, 7),
        ]
    }

    #[test]
    fn socket_keys_pack_and_print() {
        let ip = cidr::ip(10, 0, 0, 7);
        assert_eq!(socket_ix(ip, 443), (u64::from(ip) << 16) | 443);
        assert_eq!(socket_parts(socket_ix(ip, 443)), (ip, 443));
        assert_eq!(socket_key(ip, 443), "010.000.000.007.00443");
        assert_eq!(
            socket_schema().parse_key("010.000.000.007.00443"),
            Some(vec![u64::from(ip), 443])
        );
    }

    #[test]
    fn socket_matrix_keeps_port_resolution() {
        let a = socket_matrix(&sample_events());
        assert_eq!(a.nnz(), 4); // distinct socket pairs stay distinct
        let client = cidr::ip(10, 2, 3, 4);
        let web = cidr::ip(10, 0, 0, 7);
        assert_eq!(
            a.get(socket_ix(client, 50_001), socket_ix(web, 443))
                .copied(),
            Some(10)
        );
    }

    #[test]
    fn host_rollup_equals_direct_host_matrix() {
        // The tentpole equivalence: rolling the socket matrix up must be
        // bit-identical to never having keyed by port at all.
        let events = sample_events();
        let rolled = host_rollup(&socket_matrix(&events));
        let mut coo = Coo::new(crate::IP_SPACE, crate::IP_SPACE);
        coo.extend(
            events
                .iter()
                .map(|&(si, _, di, _, pk)| (Ix::from(si), Ix::from(di), pk)),
        );
        let direct = coo.build_dcsr(TrafficSemiring::new());
        assert_eq!(rolled.nnz(), direct.nnz());
        assert!(rolled.iter().eq(direct.iter()));
        // And the merged cell really summed across ports.
        let client = cidr::ip(10, 2, 3, 4);
        let web = cidr::ip(10, 0, 0, 7);
        assert_eq!(
            rolled.get(Ix::from(client), Ix::from(web)).copied(),
            Some(17)
        );
    }

    #[test]
    fn host_rollup_records_rollup_kernel() {
        let ctx = OpCtx::new();
        let _ = host_rollup_ctx(&ctx, &socket_matrix(&sample_events()));
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.kernel(Kernel::Rollup).calls, 1);
    }

    #[test]
    fn top_sockets_ranks_by_sent_volume() {
        let a = socket_matrix(&sample_events());
        let top = top_sockets(&a, 2);
        let client = cidr::ip(10, 2, 3, 4);
        // client:50001 sent 10 + 2 = 12, web:33000 sent 7.
        assert_eq!(top[0], (client, 50_001, 12));
        assert_eq!(top[1], (cidr::ip(10, 0, 0, 7), 33_000, 7));
    }

    #[test]
    fn generated_socket_windows_roll_up_to_flow_windows() {
        // The generator's socket stream must be the same traffic as its
        // host stream, just at finer key resolution.
        let g = TrafficGen::new(GenConfig::new().with_events_per_window(300).with_seed(9));
        let sockets = g.socket_window(0);
        let hosts = g.window(0);
        assert_eq!(sockets.len(), hosts.len());
        for (&(si, _, di, _, pk), &(hs, hd, hp)) in sockets.iter().zip(&hosts) {
            assert_eq!((si, di, pk), (hs, hd, hp));
        }
        // Determinism: socket windows are pure functions of the seed.
        assert_eq!(g.socket_window(0), g.socket_window(0));
        // And the rollup equivalence holds on generated traffic too.
        let rolled = host_rollup(&socket_matrix(&sockets));
        let mut coo = Coo::new(crate::IP_SPACE, crate::IP_SPACE);
        coo.extend(hosts.iter().map(|&(s, d, p)| (Ix::from(s), Ix::from(d), p)));
        let direct = coo.build_dcsr(TrafficSemiring::new());
        assert!(rolled.iter().eq(direct.iter()));
    }
}
