//! Benchmarks of the TCP and VIA protocol state machines: messages per
//! second through a connected pair, without an event loop.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use simnet::fabric::NodeId;
use simnet::SimTime;
use std::hint::black_box;
use transport::tcp::{TcpConfig, TcpStack};
use transport::via::{ViaConfig, ViaNic};
use transport::{CallParams, CostModel, Effect, MsgClass, Substrate};

/// Ferries frames between two substrates until quiescent.
fn pump<M: Clone>(
    now: SimTime,
    a: &mut dyn Substrate<M>,
    b: &mut dyn Substrate<M>,
    mut effects: Vec<Effect<M>>,
) -> usize {
    let mut delivered = 0;
    while let Some(e) = effects.pop() {
        match e {
            Effect::Transmit(frame) => {
                let mut out = Vec::new();
                if frame.dst == b.node() {
                    b.frame_arrived(now, frame, &mut out);
                } else {
                    a.frame_arrived(now, frame, &mut out);
                }
                effects.extend(out);
            }
            Effect::Upcall(transport::Upcall::Deliver { .. }) => delivered += 1,
            _ => {}
        }
    }
    delivered
}

fn tcp_pair() -> (TcpStack<u64>, TcpStack<u64>) {
    let mut a = TcpStack::new(NodeId(0), TcpConfig::default(), CostModel::tcp());
    let mut b = TcpStack::new(NodeId(1), TcpConfig::default(), CostModel::tcp());
    let mut out = Vec::new();
    a.open(SimTime::ZERO, NodeId(1), &mut out);
    pump(SimTime::ZERO, &mut a, &mut b, out);
    (a, b)
}

/// Ferries frames among `stacks`, where stack `n` is node `n`, until
/// quiescent.
fn pump_many(now: SimTime, stacks: &mut [TcpStack<u64>], mut effects: Vec<Effect<u64>>) -> usize {
    let mut delivered = 0;
    while let Some(e) = effects.pop() {
        match e {
            Effect::Transmit(frame) => {
                let mut out = Vec::new();
                stacks[frame.dst.0].frame_arrived(now, frame, &mut out);
                effects.extend(out);
            }
            Effect::Upcall(transport::Upcall::Deliver { .. }) => delivered += 1,
            _ => {}
        }
    }
    delivered
}

fn via_pair() -> (ViaNic<u64>, ViaNic<u64>) {
    let mut a = ViaNic::new(NodeId(0), ViaConfig::remote_write(), CostModel::via5());
    let mut b = ViaNic::new(NodeId(1), ViaConfig::remote_write(), CostModel::via5());
    let mut out = Vec::new();
    a.open(SimTime::ZERO, NodeId(1), &mut out);
    pump(SimTime::ZERO, &mut a, &mut b, out);
    (a, b)
}

fn message_round_trips(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_msgs");
    group.throughput(Throughput::Elements(1));

    group.bench_function("tcp_8k_file", |b| {
        let (mut s, mut r) = tcp_pair();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut out = Vec::new();
            s.send(
                SimTime::ZERO,
                NodeId(1),
                MsgClass::FileData,
                i,
                8192,
                CallParams::default(),
                &mut out,
            );
            black_box(pump(SimTime::ZERO, &mut s, &mut r, out))
        })
    });

    // Node 0 holds established connections to 63 peers, as every node
    // of the N=64 cluster does, and sends one message to each in turn;
    // each peer's ACK comes back before the next send.
    group.bench_function("tcp_send_ack_63_peers", |b| {
        let mut stacks: Vec<TcpStack<u64>> = (0..64)
            .map(|n| TcpStack::new(NodeId(n), TcpConfig::default(), CostModel::tcp()))
            .collect();
        for peer in 1..64 {
            let mut out = Vec::new();
            stacks[0].open(SimTime::ZERO, NodeId(peer), &mut out);
            pump_many(SimTime::ZERO, &mut stacks, out);
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let peer = NodeId(1 + (i % 63) as usize);
            let mut out = Vec::new();
            stacks[0].send(
                SimTime::ZERO,
                peer,
                MsgClass::Forward,
                i,
                256,
                CallParams::default(),
                &mut out,
            );
            black_box(pump_many(SimTime::ZERO, &mut stacks, out))
        })
    });

    group.bench_function("via_8k_file", |b| {
        let (mut s, mut r) = via_pair();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut out = Vec::new();
            s.send(
                SimTime::ZERO,
                NodeId(1),
                MsgClass::FileData,
                i,
                8192,
                CallParams::default(),
                &mut out,
            );
            black_box(pump(SimTime::ZERO, &mut s, &mut r, out))
        })
    });

    group.bench_function("via_64b_control", |b| {
        let (mut s, mut r) = via_pair();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut out = Vec::new();
            s.send(
                SimTime::ZERO,
                NodeId(1),
                MsgClass::Forward,
                i,
                64,
                CallParams::default(),
                &mut out,
            );
            black_box(pump(SimTime::ZERO, &mut s, &mut r, out))
        })
    });
    group.finish();
}

fn connection_churn(c: &mut Criterion) {
    c.bench_function("transport/tcp_connect_teardown", |b| {
        b.iter(|| {
            let (mut s, mut r) = tcp_pair();
            s.restart(SimTime::ZERO);
            let mut out = Vec::new();
            s.open(SimTime::ZERO, NodeId(1), &mut out);
            black_box(pump(SimTime::ZERO, &mut s, &mut r, out))
        })
    });
}

criterion_group!(benches, message_round_trips, connection_churn);
criterion_main!(benches);
