//! Executors: run a [`CommSchedule`] against distributed arrays by
//! message passing over the pluggable transport fabric.
//!
//! Three execution paths share the schedule:
//!
//! * **Batched** (default) — one run-encoded message per non-empty
//!   (src, dst ≠ src) pair over the node's [`crate::transport`] endpoint;
//!   serialized fabrics ship the byte encoding of [`super::wire`], the
//!   in-memory fabrics ship the `(Vec<RunSpan>, Vec<T>)` pair boxed.
//! * **Per-element** — one typed message per element over per-call
//!   channels: the historical pre-batching protocol, preserved for
//!   ablation (the fabric only carries its poison signalling).
//! * **Multi-process** — inside a `bcag spmd` node process the executor
//!   bypasses the thread launch entirely: it sends its own row as real
//!   bytes on the launcher's pipes, shadow-applies every other pair into
//!   its replicated array image, and wire-receives only its own row.
//!
//! Every path charges `transport_bytes_tx`/`transport_bytes_rx` at the
//! canonical [`super::wire::wire_size`] of each message, so the totals
//! are identical across backends; each node counts only its own row, so
//! merged multi-process totals equal in-process totals.

use std::sync::mpsc;

use bcag_core::error::{BcagError, Result};
use bcag_core::method::Method;
use bcag_core::section::RegularSection;

use crate::darray::DistArray;
use crate::pool::{self, lock_clean, LaunchMode, NodeCtx};
use crate::transport::{self, TransportKind};

use super::schedule::CommSchedule;
use super::wire::{self, PackValue, RunSpan};

/// Selects the data-movement strategy of [`CommSchedule::execute_with`] —
/// an ablation switch in the spirit of [`Method`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// One message per non-empty (src, dst ≠ src) pair; same-node transfers
    /// apply directly into the LHS local memory. The default.
    Batched,
    /// One message per element, self-transfers included — the historical
    /// baseline, kept for ablation benchmarks.
    PerElement,
}

impl ExecMode {
    /// Short human-readable name (used by benches).
    pub fn name(&self) -> &'static str {
        match self {
            ExecMode::Batched => "batched",
            ExecMode::PerElement => "per-element",
        }
    }
}

impl CommSchedule {
    /// Executes `A(sec_a) = B(sec_b)` by message passing with the default
    /// [`ExecMode::Batched`] strategy: every node packs its outgoing
    /// transfers for one destination into a single run-encoded message
    /// (`(Vec<RunSpan>, Vec<T>)` — contiguous and constant-gap stretches
    /// pack and apply as slice copies), sends one message per non-empty
    /// (src, dst ≠ src) pair, applies same-node transfers directly into
    /// its own memory run-by-run, then drains its inbox.
    ///
    /// When tracing is enabled, each node lane (`node-<src>`) records a
    /// `comm.execute.node` span and the communication counters:
    /// `elements_moved` (all outgoing transfers), `elements_nonlocal` and
    /// `messages_sent` (src ≠ dst only), `bytes_packed` (payload bytes
    /// packed out of B's local memory), `transport_bytes_tx`/`_rx` (the
    /// canonical wire size of every message sent/received) and
    /// `recv_wait_ns` (time blocked on the inbox during the receive
    /// phase). Counter totals are identical across execution modes,
    /// launch modes, and transports.
    pub fn execute<T: PackValue>(&self, a: &mut DistArray<T>, b: &DistArray<T>) -> Result<()> {
        self.execute_with(a, b, ExecMode::Batched)
    }

    /// [`CommSchedule::execute`] with an explicit strategy — the ablation
    /// entry point for comparing batched against per-element movement.
    /// Launches with the process-default [`LaunchMode`].
    pub fn execute_with<T: PackValue>(
        &self,
        a: &mut DistArray<T>,
        b: &DistArray<T>,
        mode: ExecMode,
    ) -> Result<()> {
        self.execute_launched(a, b, mode, pool::default_launch())
    }

    /// [`CommSchedule::execute_with`] with an explicit [`LaunchMode`] —
    /// the A/B entry point the pooled-vs-scoped benchmarks and oracle
    /// tests use — on the process-default transport.
    pub fn execute_launched<T: PackValue>(
        &self,
        a: &mut DistArray<T>,
        b: &DistArray<T>,
        mode: ExecMode,
        launch: LaunchMode,
    ) -> Result<()> {
        self.execute_transport(a, b, mode, launch, transport::default_transport())
    }

    /// The fully explicit entry point: strategy, launch mode *and*
    /// transport fabric. All other `execute*` methods funnel through
    /// here. Both launch modes and all three fabrics run the identical
    /// node body, so every deterministic counter total is independent of
    /// all three choices by construction.
    ///
    /// Inside a `bcag spmd` node process (a multi-process session is
    /// installed), all of them are overridden: the exchange runs on the
    /// launcher's pipes via [`CommSchedule::execute_transport`]'s
    /// multi-process path instead.
    pub fn execute_transport<T: PackValue>(
        &self,
        a: &mut DistArray<T>,
        b: &DistArray<T>,
        mode: ExecMode,
        launch: LaunchMode,
        kind: TransportKind,
    ) -> Result<()> {
        assert_eq!(a.p(), self.p, "LHS machine size mismatch");
        assert_eq!(b.p(), self.p, "RHS machine size mismatch");
        let _sp = bcag_trace::span("comm.execute");
        let _t = bcag_trace::timed_span("comm_execute_ns");
        if let Some(session) = transport::proc::active() {
            bcag_trace::set_tag("transport", TransportKind::Proc.name());
            return self.execute_proc(a, b, &session);
        }
        bcag_trace::set_tag("transport", kind.name());
        match mode {
            ExecMode::Batched => self.execute_batched(a, b, launch, kind),
            ExecMode::PerElement => self.execute_per_element(a, b, launch, kind),
        }
        Ok(())
    }

    fn execute_batched<T: PackValue>(
        &self,
        a: &mut DistArray<T>,
        b: &DistArray<T>,
        launch: LaunchMode,
        kind: TransportKind,
    ) {
        let p = self.p as usize;
        // Packed messages travel the pool fabric as type-erased
        // envelopes; their `Vec` buffers come from (and return to) each
        // node's arena, so steady-state statements allocate nothing.
        let slots: Vec<std::sync::Mutex<&mut Vec<T>>> = a
            .locals_mut()
            .iter_mut()
            .map(std::sync::Mutex::new)
            .collect();
        pool::launch_with(self.p, launch, kind, |me, ctx| {
            let _sp = bcag_trace::span("comm.execute.node");
            // Serialized fabrics ship real bytes (when the payload has a
            // wire format); in-memory fabrics ship the pair boxed but are
            // charged the same canonical wire size.
            let use_wire = ctx.serializes() && T::WIRE_BYTES.is_some();
            let mut slot = lock_clean(&slots[me]);
            let local_a: &mut Vec<T> = &mut slot;
            // Send phase: pack from B's local memory run-by-run, one
            // message per non-empty destination; the self-row is applied
            // straight into A's local memory, run-by-run. A message is the
            // pair (run spans, packed values): destination addresses cost
            // one span per run instead of one `i64` per element.
            let local_b = b.local(me as i64);
            let mut seg_count = 0u64;
            let mut seg_elems = 0u64;
            for dst in 0..p {
                let transfers = self.pair(me, dst);
                bcag_trace::count("elements_moved", transfers.len() as u64);
                bcag_trace::count(
                    "bytes_packed",
                    (transfers.len() * std::mem::size_of::<T>()) as u64,
                );
                let runs = self.pair_runs(me, dst);
                for r in runs {
                    if r.len >= 2 {
                        seg_count += 1;
                        seg_elems += r.len as u64;
                    }
                }
                if dst == me {
                    T::apply_runs(local_a, local_b, runs);
                    continue;
                }
                if transfers.is_empty() {
                    continue;
                }
                bcag_trace::count("messages_sent", 1);
                bcag_trace::count("elements_nonlocal", transfers.len() as u64);
                let mut spans: Vec<RunSpan> = ctx.take_buf();
                let mut vals: Vec<T> = ctx.take_buf();
                spans.reserve(runs.len());
                vals.reserve(transfers.len());
                for r in runs {
                    spans.push(RunSpan {
                        dst_local: r.dst_local,
                        gap: r.dgap,
                        len: r.len,
                    });
                    T::extend_run(
                        &mut vals,
                        local_b,
                        r.src_local as usize,
                        r.sgap as usize,
                        r.len as usize,
                    );
                }
                if bcag_trace::enabled() {
                    // Per-(src,dst) message-size distribution: the sample
                    // lands on this node's (src) lane; the interned name
                    // carries the destination.
                    let tx = wire::wire_size::<T>(spans.len(), vals.len()) as u64;
                    bcag_trace::count("transport_bytes_tx", tx);
                    bcag_trace::record("msg_bytes", tx);
                    bcag_trace::record(wire::msg_bytes_key(dst), tx);
                }
                if use_wire {
                    ctx.send(dst, Box::new(wire::encode(&spans, &vals)));
                    ctx.put_buf(spans);
                    ctx.put_buf(vals);
                } else {
                    ctx.send(dst, Box::new((spans, vals)));
                }
            }
            bcag_core::runs::count_coalesced(seg_count, seg_elems);
            // Receive phase: the schedule is global knowledge (as on a
            // real SPMD machine), so each node knows exactly how many
            // messages are inbound and a counted loop avoids a
            // termination protocol.
            let expected = (0..p)
                .filter(|&s| s != me && !self.pair(s, me).is_empty())
                .count();
            let mut wait_ns = 0u64;
            for _ in 0..expected {
                let t0 = bcag_trace::enabled().then(std::time::Instant::now);
                let env = ctx.recv();
                if let Some(t0) = t0 {
                    let ns = t0.elapsed().as_nanos() as u64;
                    wait_ns += ns;
                    bcag_trace::record("recv_wait_ns", ns);
                }
                let (spans, vals) = if use_wire {
                    let bytes = *env
                        .downcast::<Vec<u8>>()
                        .expect("wire message payload type");
                    let mut spans: Vec<RunSpan> = ctx.take_buf();
                    let mut vals: Vec<T> = ctx.take_buf();
                    wire::decode_into(&bytes, &mut spans, &mut vals);
                    (spans, vals)
                } else {
                    *env.downcast::<(Vec<RunSpan>, Vec<T>)>()
                        .expect("batched message payload type")
                };
                bcag_trace::count(
                    "transport_bytes_rx",
                    wire::wire_size::<T>(spans.len(), vals.len()) as u64,
                );
                let mut off = 0usize;
                for sp in &spans {
                    let len = sp.len as usize;
                    T::write_run(
                        local_a,
                        sp.dst_local as usize,
                        sp.gap as usize,
                        &vals[off..off + len],
                    );
                    off += len;
                }
                ctx.put_buf(spans);
                ctx.put_buf(vals);
            }
            bcag_trace::count("recv_wait_ns", wait_ns);
        });
    }

    fn execute_per_element<T: PackValue>(
        &self,
        a: &mut DistArray<T>,
        b: &DistArray<T>,
        launch: LaunchMode,
        kind: TransportKind,
    ) {
        let p = self.p as usize;
        // One typed inbox per node, one message per element
        // (self-transfers included) — the pre-batching behavior,
        // preserved for ablation. The channels are per-call: this path
        // measures exactly the historical protocol; only the launch
        // (pooled vs scoped) varies, and the fabric carries nothing but
        // poison signalling.
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..p).map(|_| mpsc::channel::<(i64, T)>()).unzip();
        let senders = &senders;
        let inboxes: Vec<std::sync::Mutex<Option<mpsc::Receiver<(i64, T)>>>> = receivers
            .into_iter()
            .map(|r| std::sync::Mutex::new(Some(r)))
            .collect();
        let slots: Vec<std::sync::Mutex<&mut Vec<T>>> = a
            .locals_mut()
            .iter_mut()
            .map(std::sync::Mutex::new)
            .collect();
        // Canonical per-element message cost: one destination address
        // plus one payload value.
        let elem_bytes = (8 + T::WIRE_BYTES.unwrap_or(std::mem::size_of::<T>())) as u64;
        pool::launch_with(self.p, launch, kind, |me, ctx| {
            let _sp = bcag_trace::span("comm.execute.node");
            let inbox = lock_clean(&inboxes[me]).take().expect("one job per node");
            let mut slot = lock_clean(&slots[me]);
            let local_a: &mut Vec<T> = &mut slot;
            let local_b = b.local(me as i64);
            for dst in 0..p {
                let transfers = self.pair(me, dst);
                bcag_trace::count("elements_moved", transfers.len() as u64);
                bcag_trace::count(
                    "bytes_packed",
                    (transfers.len() * std::mem::size_of::<T>()) as u64,
                );
                bcag_trace::count("transport_bytes_tx", transfers.len() as u64 * elem_bytes);
                if dst != me && !transfers.is_empty() {
                    bcag_trace::count("messages_sent", 1);
                    bcag_trace::count("elements_nonlocal", transfers.len() as u64);
                }
                for tr in transfers {
                    let v = local_b[tr.src_local as usize].clone();
                    senders[dst]
                        .send((tr.dst_local, v))
                        .expect("receiver alive during send phase");
                }
            }
            let expected: usize = (0..p).map(|s| self.pair(s, me).len()).sum();
            bcag_trace::count("transport_bytes_rx", expected as u64 * elem_bytes);
            let mut wait_ns = 0u64;
            for _ in 0..expected {
                let t0 = bcag_trace::enabled().then(std::time::Instant::now);
                let (addr, v) = recv_typed(&inbox, ctx);
                if let Some(t0) = t0 {
                    let ns = t0.elapsed().as_nanos() as u64;
                    wait_ns += ns;
                    bcag_trace::record("recv_wait_ns", ns);
                }
                local_a[addr as usize] = v;
            }
            bcag_trace::count("recv_wait_ns", wait_ns);
        });
    }

    /// The multi-process path: this process *is* node `me` of the
    /// session; every other node is another OS process reachable only
    /// through the launcher's pipes.
    ///
    /// Each process holds a *replicated* image of both arrays (compute
    /// statements run inline for every node index), so consistency
    /// requires three kinds of application:
    ///
    /// 1. its own row — packed, wire-encoded and really sent (`dst ≠ me`)
    ///    or applied directly (`dst = me`);
    /// 2. every pair with `dst ≠ me` — shadow-applied locally from the
    ///    replicated B image, keeping the other nodes' slices of A
    ///    current in this process;
    /// 3. pairs into `me` from other nodes — received as real bytes from
    ///    the pipes and decoded.
    ///
    /// Only the own-row contributions are counted, so summing the merged
    /// per-process traces reproduces the in-process totals exactly.
    fn execute_proc<T: PackValue>(
        &self,
        a: &mut DistArray<T>,
        b: &DistArray<T>,
        session: &transport::proc::Session,
    ) -> Result<()> {
        if T::WIRE_BYTES.is_none() {
            return Err(BcagError::Precondition(
                "multi-process execution requires a fixed-width wire payload type",
            ));
        }
        let p = self.p as usize;
        assert_eq!(session.p(), p, "spmd session machine size mismatch");
        let me = session.me();
        let _sp = bcag_trace::span("comm.execute.node");
        // Own row: count, pack, really send.
        let mut seg_count = 0u64;
        let mut seg_elems = 0u64;
        let mut spans: Vec<RunSpan> = Vec::new();
        let mut vals: Vec<T> = Vec::new();
        for dst in 0..p {
            let transfers = self.pair(me, dst);
            bcag_trace::count("elements_moved", transfers.len() as u64);
            bcag_trace::count(
                "bytes_packed",
                (transfers.len() * std::mem::size_of::<T>()) as u64,
            );
            let runs = self.pair_runs(me, dst);
            for r in runs {
                if r.len >= 2 {
                    seg_count += 1;
                    seg_elems += r.len as u64;
                }
            }
            if dst == me || transfers.is_empty() {
                continue;
            }
            bcag_trace::count("messages_sent", 1);
            bcag_trace::count("elements_nonlocal", transfers.len() as u64);
            spans.clear();
            vals.clear();
            let local_b = b.local(me as i64);
            for r in runs {
                spans.push(RunSpan {
                    dst_local: r.dst_local,
                    gap: r.dgap,
                    len: r.len,
                });
                T::extend_run(
                    &mut vals,
                    local_b,
                    r.src_local as usize,
                    r.sgap as usize,
                    r.len as usize,
                );
            }
            let bytes = wire::encode(&spans, &vals);
            if bcag_trace::enabled() {
                bcag_trace::count("transport_bytes_tx", bytes.len() as u64);
                bcag_trace::record("msg_bytes", bytes.len() as u64);
                bcag_trace::record(wire::msg_bytes_key(dst), bytes.len() as u64);
            }
            session.send_data(dst, bytes);
        }
        bcag_core::runs::count_coalesced(seg_count, seg_elems);
        // Shadow phase: every pair landing on another node's slice of A,
        // including this node's own sends, applied from the replicated
        // B image (uncounted — the owning process counts them).
        let locals_a = a.locals_mut();
        for src in 0..p {
            let local_b = b.local(src as i64);
            for (dst, local_a) in locals_a.iter_mut().enumerate() {
                if dst == me && src != me {
                    continue; // inbound for real, below
                }
                T::apply_runs(local_a, local_b, self.pair_runs(src, dst));
            }
        }
        // Receive phase: real bytes from the pipes, demultiplexed by
        // source, in increasing source order — deterministic because the
        // router preserves per-source FIFO.
        let local_a = &mut locals_a[me];
        let mut wait_ns = 0u64;
        for src in (0..p).filter(|&s| s != me && !self.pair(s, me).is_empty()) {
            let t0 = bcag_trace::enabled().then(std::time::Instant::now);
            let bytes = session.recv_from(src);
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                wait_ns += ns;
                bcag_trace::record("recv_wait_ns", ns);
            }
            bcag_trace::count("transport_bytes_rx", bytes.len() as u64);
            spans.clear();
            vals.clear();
            wire::decode_into(&bytes, &mut spans, &mut vals);
            let mut off = 0usize;
            for sp in &spans {
                let len = sp.len as usize;
                T::write_run(
                    local_a,
                    sp.dst_local as usize,
                    sp.gap as usize,
                    &vals[off..off + len],
                );
                off += len;
            }
        }
        bcag_trace::count("recv_wait_ns", wait_ns);
        Ok(())
    }
}

/// Blocks for one typed message while watching the pool fabric for a
/// peer's poison, so a panicking node job cannot strand the counted
/// receive loop of [`ExecMode::PerElement`].
///
/// The `try_recv` fast path keeps the steady flow at plain-`recv` cost
/// (no deadline computation per message); the timeout machinery only
/// engages when the queue is momentarily empty.
fn recv_typed<M>(inbox: &mpsc::Receiver<M>, ctx: &mut NodeCtx) -> M {
    // Brief spin bridges the gap when the receiver momentarily outruns
    // its senders, avoiding a park/unpark round-trip per message.
    for _ in 0..128 {
        if let Ok(msg) = inbox.try_recv() {
            return msg;
        }
        std::hint::spin_loop();
    }
    loop {
        match inbox.recv_timeout(std::time::Duration::from_millis(25)) {
            Ok(msg) => return msg,
            Err(mpsc::RecvTimeoutError::Timeout) => ctx.check_poison(),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("typed channel closed before the counted receive finished")
            }
        }
    }
}

/// Convenience wrapper: build the schedule and execute it.
pub fn assign_array<T: PackValue>(
    a: &mut DistArray<T>,
    sec_a: &RegularSection,
    b: &DistArray<T>,
    sec_b: &RegularSection,
    method: Method,
) -> Result<()> {
    assert_eq!(a.p(), b.p(), "arrays must live on the same machine");
    let schedule = CommSchedule::build(a.p(), a.k(), sec_a, b.k(), sec_b, method)?;
    schedule.execute(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_assign(a: &mut [i64], sec_a: &RegularSection, b: &[i64], sec_b: &RegularSection) {
        let ea: Vec<i64> = sec_a.iter().collect();
        let eb: Vec<i64> = sec_b.iter().collect();
        assert_eq!(ea.len(), eb.len());
        for (ia, ib) in ea.iter().zip(&eb) {
            a[*ia as usize] = b[*ib as usize];
        }
    }

    #[test]
    fn same_layout_strided_copy() {
        let n = 300i64;
        let bg: Vec<i64> = (0..n).map(|i| 1000 + i).collect();
        let b = DistArray::from_global(4, 8, &bg).unwrap();
        let mut a = DistArray::new(4, 8, n, 0i64).unwrap();
        let sec_a = RegularSection::new(0, 290, 10).unwrap();
        let sec_b = RegularSection::new(5, 295, 10).unwrap();
        assign_array(&mut a, &sec_a, &b, &sec_b, Method::Lattice).unwrap();

        let mut expect = vec![0i64; n as usize];
        seq_assign(&mut expect, &sec_a, &bg, &sec_b);
        assert_eq!(a.to_global(), expect);
    }

    #[test]
    fn different_block_sizes_redistribution() {
        // A is cyclic(8), B is cyclic(3): a genuine redistribution.
        let n = 240i64;
        let bg: Vec<i64> = (0..n).map(|i| i * i).collect();
        let b = DistArray::from_global(4, 3, &bg).unwrap();
        let mut a = DistArray::new(4, 8, n, -1i64).unwrap();
        let sec_a = RegularSection::new(2, 230, 4).unwrap();
        let sec_b = RegularSection::new(1, 229, 4).unwrap();
        assign_array(&mut a, &sec_a, &b, &sec_b, Method::Lattice).unwrap();

        let mut expect = vec![-1i64; n as usize];
        seq_assign(&mut expect, &sec_a, &bg, &sec_b);
        assert_eq!(a.to_global(), expect);
    }

    #[test]
    fn per_element_mode_matches_batched() {
        let n = 240i64;
        let bg: Vec<i64> = (0..n).map(|i| 3 * i + 1).collect();
        let b = DistArray::from_global(4, 3, &bg).unwrap();
        let sec_a = RegularSection::new(2, 230, 4).unwrap();
        let sec_b = RegularSection::new(1, 229, 4).unwrap();
        let sched = CommSchedule::build_lattice(4, 8, &sec_a, 3, &sec_b).unwrap();
        let mut batched = DistArray::new(4, 8, n, -1i64).unwrap();
        sched
            .execute_with(&mut batched, &b, ExecMode::Batched)
            .unwrap();
        let mut per_elem = DistArray::new(4, 8, n, -1i64).unwrap();
        sched
            .execute_with(&mut per_elem, &b, ExecMode::PerElement)
            .unwrap();
        assert_eq!(batched.to_global(), per_elem.to_global());
    }

    #[test]
    fn every_transport_matches_the_oracle() {
        // The shm fabric and the serialized in-process proc fabric must
        // produce bit-identical arrays to the mpsc reference, through
        // both launch modes.
        let n = 240i64;
        let bg: Vec<i64> = (0..n).map(|i| 5 * i - 7).collect();
        let b = DistArray::from_global(4, 3, &bg).unwrap();
        let sec_a = RegularSection::new(2, 230, 4).unwrap();
        let sec_b = RegularSection::new(1, 229, 4).unwrap();
        let sched = CommSchedule::build_lattice(4, 8, &sec_a, 3, &sec_b).unwrap();
        let mut expect = vec![-1i64; n as usize];
        seq_assign(&mut expect, &sec_a, &bg, &sec_b);
        for kind in TransportKind::ALL {
            for launch in [LaunchMode::Pooled, LaunchMode::Scoped] {
                let mut a = DistArray::new(4, 8, n, -1i64).unwrap();
                sched
                    .execute_transport(&mut a, &b, ExecMode::Batched, launch, kind)
                    .unwrap();
                assert_eq!(a.to_global(), expect, "{} {}", kind.name(), launch.name());
            }
        }
    }

    #[test]
    fn serialized_fabric_moves_array_payloads() {
        // [f64; 4] exercises the composite wire format end to end over
        // the serializing in-process fabric.
        let n = 96i64;
        let bg: Vec<[f64; 4]> = (0..n)
            .map(|i| [i as f64, -i as f64, 0.5 * i as f64, 1.0])
            .collect();
        let b = DistArray::from_global(4, 5, &bg).unwrap();
        let sec = RegularSection::new(0, n - 1, 1).unwrap();
        let sched = CommSchedule::build_lattice(4, 3, &sec, 5, &sec).unwrap();
        let mut a = DistArray::new(4, 3, n, [0.0f64; 4]).unwrap();
        sched
            .execute_transport(
                &mut a,
                &b,
                ExecMode::Batched,
                LaunchMode::Scoped,
                TransportKind::Proc,
            )
            .unwrap();
        assert_eq!(a.to_global(), bg);
    }

    #[test]
    fn schedule_accounting_drives_execution() {
        let n = 240i64;
        let bg: Vec<i64> = (0..n).map(|i| 7 * i).collect();
        let b = DistArray::from_global(4, 3, &bg).unwrap();
        let mut a = DistArray::new(4, 8, n, -1i64).unwrap();
        let sec_a = RegularSection::new(2, 230, 4).unwrap();
        let sec_b = RegularSection::new(1, 229, 4).unwrap();
        let sched = CommSchedule::build_lattice(4, 8, &sec_a, 3, &sec_b).unwrap();
        sched.execute(&mut a, &b).unwrap();
        let mut expect = vec![-1i64; n as usize];
        seq_assign(&mut expect, &sec_a, &bg, &sec_b);
        assert_eq!(a.to_global(), expect);
    }

    #[test]
    fn empty_sections_are_noop() {
        let sec = RegularSection::new(10, 5, 1).unwrap();
        let sched = CommSchedule::build(2, 4, &sec, 4, &sec, Method::Lattice).unwrap();
        assert_eq!(sched.total_elements(), 0);
        let b = DistArray::new(2, 4, 20, 3i64).unwrap();
        let mut a = DistArray::new(2, 4, 20, 7i64).unwrap();
        sched.execute(&mut a, &b).unwrap();
        assert!(a.to_global().iter().all(|&x| x == 7));
    }

    #[test]
    fn clone_payloads_move_correctly() {
        // Strings take the clone-based default PackValue path; on the
        // serializing fabric they fall back to boxed envelopes.
        let n = 60i64;
        let bg: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
        let b = DistArray::from_global(3, 4, &bg).unwrap();
        let sec = RegularSection::new(0, n - 1, 1).unwrap();
        let sched = CommSchedule::build(3, 7, &sec, 4, &sec, Method::Lattice).unwrap();
        for kind in TransportKind::ALL {
            let mut a = DistArray::new(3, 7, n, String::new()).unwrap();
            sched
                .execute_transport(&mut a, &b, ExecMode::Batched, LaunchMode::Scoped, kind)
                .unwrap();
            assert_eq!(a.to_global(), bg, "{}", kind.name());
        }
    }
}
