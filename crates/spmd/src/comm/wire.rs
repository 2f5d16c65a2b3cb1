//! Payload representation: the [`PackValue`] hooks the executors' inner
//! loops are built on, and the run-encoded wire format the serialized
//! transports ship.
//!
//! A batched message is conceptually `(Vec<RunSpan>, Vec<T>)`: run
//! headers saying *where* the next `len` payload values land, plus the
//! packed values themselves. In-memory backends move that pair as a
//! type-erased boxed envelope; serialized backends ([`TransportKind::
//! Proc`](crate::transport::TransportKind) in-process, and the
//! multi-process `bcag spmd` pipes) move its byte encoding:
//!
//! ```text
//! [nspans: u32] [nvals: u32] [elem_bytes: u32]      — 12-byte header
//! nspans × ([dst_local: i64] [gap: i64] [len: i64]) — 24 bytes per span
//! nvals  × (elem_bytes payload bytes)               — fixed-width values
//! ```
//!
//! All integers little-endian. A payload type opts into the wire with
//! [`PackValue::WIRE_BYTES`]`= Some(width)`; types without a fixed-width
//! encoding (`String`, `Vec`, `Option`) keep the default `None` and stay
//! on boxed envelopes (and are rejected by the multi-process executor).
//! [`wire_size`] is the *canonical* size of a message — the transport
//! byte counters charge it on every backend, serialized or not, so
//! `transport_bytes_tx`/`_rx` totals are backend-independent.

use std::sync::OnceLock;

use super::schedule::{Transfer, TransferRun};

/// On-the-wire run header of the batched executor's run-encoded messages:
/// the next `len` payload values land at `dst_local, dst_local + gap, …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpan {
    /// First destination local address.
    pub dst_local: i64,
    /// Destination address step.
    pub gap: i64,
    /// Number of payload values belonging to this span.
    pub len: i64,
}

/// Payload types the communication engine can move.
///
/// The hooks cover the engine's inner loops: packing outgoing transfers
/// into a message buffer, applying same-node transfers in place, and the
/// run-coalesced variants (`extend_run`/`write_run`/`apply_runs`) the
/// batched executor and [`crate::pack`] are built on. The default bodies
/// clone element by element — correct for any `Clone` payload. The macro
/// below overrides them for the primitive numeric types with straight
/// copies — `extend_from_slice`/`copy_from_slice` for unit-gap runs — so
/// `i64`/`f64` payloads (the common case) never run a `clone()` call per
/// element. (Rust's coherence rules forbid a blanket `impl<T: Copy>` next
/// to the `String`/`Vec` impls, so the fast path is spelled out per
/// primitive.)
///
/// The wire hooks (`WIRE_BYTES`/`wire_write`/`wire_read`) give a type a
/// fixed-width byte encoding for the serialized transports; the numeric
/// primitives use their little-endian byte representation (`isize`/
/// `usize` widths are the host's — the multi-process launcher only ever
/// spans one machine).
///
/// The `'static` bound lets packed messages travel the type-erased pool
/// fabric (`Box<dyn Any + Send>`) and rest in buffer arenas between
/// statements.
pub trait PackValue: Clone + Send + Sync + 'static {
    /// Fixed per-element wire width in bytes, or `None` if the type has
    /// no byte-exact wire format (it then travels only as an in-memory
    /// boxed envelope).
    const WIRE_BYTES: Option<usize> = None;

    /// Appends this value's `WIRE_BYTES` encoding onto `out`. Only called
    /// when [`PackValue::WIRE_BYTES`] is `Some`.
    fn wire_write(&self, _out: &mut Vec<u8>) {
        unreachable!("payload type has no wire format (WIRE_BYTES is None)")
    }

    /// Decodes one value from exactly `WIRE_BYTES` bytes. Only called
    /// when [`PackValue::WIRE_BYTES`] is `Some`.
    fn wire_read(_bytes: &[u8]) -> Self {
        unreachable!("payload type has no wire format (WIRE_BYTES is None)")
    }

    /// Appends `(dst_local, value)` records for `transfers` onto `out`,
    /// reading payloads from the source node's local memory `src`.
    fn pack_into(src: &[Self], transfers: &[Transfer], out: &mut Vec<(i64, Self)>) {
        out.reserve(transfers.len());
        for tr in transfers {
            out.push((tr.dst_local, src[tr.src_local as usize].clone()));
        }
    }

    /// Applies same-node transfers straight from `src` into `dst`, without
    /// staging through a message.
    fn apply_local(dst: &mut [Self], src: &[Self], transfers: &[Transfer]) {
        for tr in transfers {
            dst[tr.dst_local as usize] = src[tr.src_local as usize].clone();
        }
    }

    /// Appends the `len` elements `src[addr], src[addr + gap], …` onto
    /// `out` — one traversal segment of a pack.
    fn extend_run(out: &mut Vec<Self>, src: &[Self], addr: usize, gap: usize, len: usize) {
        if gap == 1 {
            out.extend(src[addr..addr + len].iter().cloned());
        } else {
            let span = (len - 1) * gap + 1;
            out.extend(src[addr..addr + span].iter().step_by(gap).cloned());
        }
    }

    /// Writes `vals` into `dst[addr], dst[addr + gap], …` — one traversal
    /// segment of an unpack.
    fn write_run(dst: &mut [Self], addr: usize, gap: usize, vals: &[Self]) {
        if vals.is_empty() {
            return;
        }
        if gap == 1 {
            dst[addr..addr + vals.len()].clone_from_slice(vals);
        } else {
            let span = (vals.len() - 1) * gap + 1;
            for (d, v) in dst[addr..addr + span].iter_mut().step_by(gap).zip(vals) {
                *d = v.clone();
            }
        }
    }

    /// Applies same-node transfer runs straight from `src` into `dst` —
    /// the run-coalesced form of [`PackValue::apply_local`].
    fn apply_runs(dst: &mut [Self], src: &[Self], runs: &[TransferRun]) {
        for r in runs {
            for j in 0..r.len {
                dst[(r.dst_local + j * r.dgap) as usize] =
                    src[(r.src_local + j * r.sgap) as usize].clone();
            }
        }
    }
}

/// Shared `Copy` fast paths: the macro'd primitive impls and the `[U; N]`
/// impl all delegate here, so the memcpy bodies exist once.
mod copy_fast {
    use super::{Transfer, TransferRun};

    pub fn pack_into<T: Copy>(src: &[T], transfers: &[Transfer], out: &mut Vec<(i64, T)>) {
        out.reserve(transfers.len());
        for tr in transfers {
            out.push((tr.dst_local, src[tr.src_local as usize]));
        }
    }

    pub fn apply_local<T: Copy>(dst: &mut [T], src: &[T], transfers: &[Transfer]) {
        for tr in transfers {
            dst[tr.dst_local as usize] = src[tr.src_local as usize];
        }
    }

    pub fn extend_run<T: Copy>(out: &mut Vec<T>, src: &[T], addr: usize, gap: usize, len: usize) {
        if gap == 1 {
            out.extend_from_slice(&src[addr..addr + len]);
            return;
        }
        // Wide-gap gather. Driving the source through `chunks_exact` (one
        // chunk per stride period, keep the head) gives the optimizer a
        // shufflable strided-load shape with an exact length; the plain
        // `step_by` extend does not vectorize. Small gaps are dispatched
        // to compile-time-constant chunk widths so the loop unrolls into
        // shuffles instead of scalar strided loads. The last element has
        // no full trailing chunk, so it is pushed separately.
        let span = (len - 1) * gap + 1;
        let src = &src[addr..addr + span];
        out.reserve(len);
        match gap {
            2 => gather_const::<T, 2>(out, src),
            3 => gather_const::<T, 3>(out, src),
            4 => gather_const::<T, 4>(out, src),
            _ => out.extend(src.chunks_exact(gap).map(|c| c[0])),
        }
        out.push(src[span - 1]);
    }

    fn gather_const<T: Copy, const G: usize>(out: &mut Vec<T>, src: &[T]) {
        out.extend(src.chunks_exact(G).map(|c| c[0]));
    }

    pub fn write_run<T: Copy>(dst: &mut [T], addr: usize, gap: usize, vals: &[T]) {
        if vals.is_empty() {
            return;
        }
        if gap == 1 {
            dst[addr..addr + vals.len()].copy_from_slice(vals);
            return;
        }
        // Scatter mirror of `extend_run`: one chunk per stride period,
        // write the head, leave the gap bytes untouched; small gaps get
        // compile-time-constant chunk widths.
        let span = (vals.len() - 1) * gap + 1;
        let dst = &mut dst[addr..addr + span];
        dst[span - 1] = vals[vals.len() - 1];
        match gap {
            2 => scatter_const::<T, 2>(dst, vals),
            3 => scatter_const::<T, 3>(dst, vals),
            4 => scatter_const::<T, 4>(dst, vals),
            _ => {
                for (c, v) in dst.chunks_exact_mut(gap).zip(vals) {
                    c[0] = *v;
                }
            }
        }
    }

    fn scatter_const<T: Copy, const G: usize>(dst: &mut [T], vals: &[T]) {
        for (c, v) in dst.chunks_exact_mut(G).zip(vals) {
            c[0] = *v;
        }
    }

    pub fn apply_runs<T: Copy>(dst: &mut [T], src: &[T], runs: &[TransferRun]) {
        for r in runs {
            if r.sgap == 1 && r.dgap == 1 {
                let (s, d, n) = (r.src_local as usize, r.dst_local as usize, r.len as usize);
                dst[d..d + n].copy_from_slice(&src[s..s + n]);
            } else {
                for j in 0..r.len {
                    dst[(r.dst_local + j * r.dgap) as usize] =
                        src[(r.src_local + j * r.sgap) as usize];
                }
            }
        }
    }
}

/// Emits the five `copy_fast` delegations inside a `PackValue` impl.
macro_rules! copy_fast_methods {
    () => {
        fn pack_into(src: &[Self], transfers: &[Transfer], out: &mut Vec<(i64, Self)>) {
            copy_fast::pack_into(src, transfers, out)
        }

        fn apply_local(dst: &mut [Self], src: &[Self], transfers: &[Transfer]) {
            copy_fast::apply_local(dst, src, transfers)
        }

        fn extend_run(out: &mut Vec<Self>, src: &[Self], addr: usize, gap: usize, len: usize) {
            copy_fast::extend_run(out, src, addr, gap, len)
        }

        fn write_run(dst: &mut [Self], addr: usize, gap: usize, vals: &[Self]) {
            copy_fast::write_run(dst, addr, gap, vals)
        }

        fn apply_runs(dst: &mut [Self], src: &[Self], runs: &[TransferRun]) {
            copy_fast::apply_runs(dst, src, runs)
        }
    };
}

macro_rules! pack_value_by_copy {
    ($($t:ty),* $(,)?) => {$(
        impl PackValue for $t {
            const WIRE_BYTES: Option<usize> = Some(std::mem::size_of::<$t>());

            fn wire_write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn wire_read(bytes: &[u8]) -> Self {
                Self::from_le_bytes(bytes.try_into().expect("fixed wire width"))
            }

            copy_fast_methods!();
        }
    )*};
}

pack_value_by_copy!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize, f32, f64);

impl PackValue for bool {
    const WIRE_BYTES: Option<usize> = Some(1);

    fn wire_write(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn wire_read(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }

    copy_fast_methods!();
}

impl PackValue for char {
    const WIRE_BYTES: Option<usize> = Some(4);

    fn wire_write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u32).to_le_bytes());
    }

    fn wire_read(bytes: &[u8]) -> Self {
        char::from_u32(u32::from_le_bytes(
            bytes.try_into().expect("fixed wire width"),
        ))
        .expect("wire bytes hold a scalar value")
    }

    copy_fast_methods!();
}

impl<U: PackValue + Copy, const N: usize> PackValue for [U; N] {
    const WIRE_BYTES: Option<usize> = match U::WIRE_BYTES {
        Some(w) => Some(w * N),
        None => None,
    };

    fn wire_write(&self, out: &mut Vec<u8>) {
        for u in self {
            u.wire_write(out);
        }
    }

    fn wire_read(bytes: &[u8]) -> Self {
        let w = U::WIRE_BYTES.expect("array wire format requires an element wire format");
        std::array::from_fn(|i| U::wire_read(&bytes[i * w..(i + 1) * w]))
    }

    copy_fast_methods!();
}

impl PackValue for String {}
impl<U: Clone + Send + Sync + 'static> PackValue for Vec<U> {}
impl<U: Clone + Send + Sync + 'static> PackValue for Option<U> {}

/// Bytes in the message header (`nspans`, `nvals`, `elem_bytes`).
const HEADER_BYTES: usize = 12;

/// Bytes per encoded [`RunSpan`] (three little-endian `i64`s).
const SPAN_BYTES: usize = 24;

/// Canonical on-the-wire size of a run-encoded message with `nspans` run
/// headers and `nvals` payload values. Defined for *every* payload type —
/// types without a wire format are charged at `size_of::<T>()` per value —
/// so the `transport_bytes_tx`/`_rx` counters are comparable across
/// backends whether or not the bytes were actually materialized.
pub fn wire_size<T: PackValue>(nspans: usize, nvals: usize) -> usize {
    let elem = T::WIRE_BYTES.unwrap_or(std::mem::size_of::<T>());
    HEADER_BYTES + nspans * SPAN_BYTES + nvals * elem
}

/// The `msg_bytes_to_<dst>` histogram key — the per-destination message
/// size distribution — interned once per destination for the life of the
/// process, so recording a sample costs no formatting.
pub(crate) fn msg_bytes_key(dst: usize) -> &'static str {
    const CACHED: usize = 256;
    static KEYS: [OnceLock<&'static str>; CACHED] = [const { OnceLock::new() }; CACHED];
    let make = || bcag_trace::intern(&format!("msg_bytes_to_{dst}"));
    match KEYS.get(dst) {
        Some(key) => key.get_or_init(make),
        None => make(),
    }
}

/// Encodes a run-encoded message. The output length is exactly
/// [`wire_size`]`::<T>(spans.len(), vals.len())`.
///
/// # Panics
///
/// If `T` has no wire format ([`PackValue::WIRE_BYTES`] is `None`) —
/// callers gate on that before choosing the serialized path.
pub fn encode<T: PackValue>(spans: &[RunSpan], vals: &[T]) -> Vec<u8> {
    let elem = T::WIRE_BYTES.expect("payload type has no wire format");
    let mut out = Vec::with_capacity(wire_size::<T>(spans.len(), vals.len()));
    out.extend_from_slice(&(spans.len() as u32).to_le_bytes());
    out.extend_from_slice(&(vals.len() as u32).to_le_bytes());
    out.extend_from_slice(&(elem as u32).to_le_bytes());
    for sp in spans {
        out.extend_from_slice(&sp.dst_local.to_le_bytes());
        out.extend_from_slice(&sp.gap.to_le_bytes());
        out.extend_from_slice(&sp.len.to_le_bytes());
    }
    for v in vals {
        v.wire_write(&mut out);
    }
    debug_assert_eq!(out.len(), wire_size::<T>(spans.len(), vals.len()));
    out
}

/// Decodes a message produced by [`encode`], appending onto the given
/// buffers (typically arena-recycled).
///
/// # Panics
///
/// On a malformed or truncated message, or an element-width mismatch —
/// the pipes are internal, so corruption is a bug, not an input error.
pub fn decode_into<T: PackValue>(bytes: &[u8], spans: &mut Vec<RunSpan>, vals: &mut Vec<T>) {
    let elem = T::WIRE_BYTES.expect("payload type has no wire format");
    let word =
        |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
    assert!(bytes.len() >= HEADER_BYTES, "truncated wire header");
    let (nspans, nvals, got_elem) = (word(0), word(4), word(8));
    assert_eq!(got_elem, elem, "wire element width mismatch");
    assert_eq!(
        bytes.len(),
        HEADER_BYTES + nspans * SPAN_BYTES + nvals * elem,
        "wire message length mismatch"
    );
    let long = |at: usize| i64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    spans.reserve(nspans);
    for i in 0..nspans {
        let at = HEADER_BYTES + i * SPAN_BYTES;
        spans.push(RunSpan {
            dst_local: long(at),
            gap: long(at + 8),
            len: long(at + 16),
        });
    }
    let base = HEADER_BYTES + nspans * SPAN_BYTES;
    vals.reserve(nvals);
    for i in 0..nvals {
        vals.push(T::wire_read(&bytes[base + i * elem..base + (i + 1) * elem]));
    }
}

/// [`decode_into`] into fresh vectors.
pub fn decode<T: PackValue>(bytes: &[u8]) -> (Vec<RunSpan>, Vec<T>) {
    let mut spans = Vec::new();
    let mut vals = Vec::new();
    decode_into(bytes, &mut spans, &mut vals);
    (spans, vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trips_primitives_and_arrays() {
        let spans = vec![
            RunSpan {
                dst_local: 7,
                gap: 1,
                len: 3,
            },
            RunSpan {
                dst_local: -2,
                gap: 5,
                len: 1,
            },
        ];
        let ints = vec![1i64, -9, 1 << 40, 42];
        let bytes = encode(&spans, &ints);
        assert_eq!(bytes.len(), wire_size::<i64>(spans.len(), ints.len()));
        assert_eq!(decode::<i64>(&bytes), (spans.clone(), ints));

        let quads = vec![[1.5f64, -2.0, 0.0, 3.25], [f64::MAX, f64::MIN, 0.5, -0.5]];
        let bytes = encode(&spans, &quads);
        assert_eq!(bytes.len(), wire_size::<[f64; 4]>(spans.len(), quads.len()));
        assert_eq!(decode::<[f64; 4]>(&bytes), (spans.clone(), quads));

        let small = vec![true, false, true];
        let chars = vec!['α', 'z', '🦀'];
        assert_eq!(decode::<bool>(&encode(&spans, &small)).1, small);
        assert_eq!(decode::<char>(&encode(&spans, &chars)).1, chars);
    }

    #[test]
    fn empty_message_is_just_a_header() {
        let bytes = encode::<u8>(&[], &[]);
        assert_eq!(bytes.len(), 12);
        assert_eq!(decode::<u8>(&bytes), (vec![], vec![]));
    }

    #[test]
    fn unencodable_types_have_no_wire_width() {
        assert_eq!(String::WIRE_BYTES, None);
        assert_eq!(Vec::<i64>::WIRE_BYTES, None);
        assert_eq!(Option::<f64>::WIRE_BYTES, None);
        // ... but the canonical size is still defined for the counters.
        assert_eq!(
            wire_size::<String>(2, 10),
            12 + 2 * 24 + 10 * std::mem::size_of::<String>()
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn truncated_message_panics() {
        let mut bytes = encode(
            &[RunSpan {
                dst_local: 0,
                gap: 1,
                len: 2,
            }],
            &[1i64, 2],
        );
        bytes.truncate(bytes.len() - 1);
        let _ = decode::<i64>(&bytes);
    }
}
