//! Offline stage replay: the same packets through each stage of the
//! hook by itself — `packet_to_value`, `run_channel` on the JIT, the
//! interpreter and a native body, `value_to_packet` — timed in batches.
//!
//! This splits what no wrapper span can reach (a `runtime` span covers
//! all of `PlanpLayer::on_packet`). Relay packets are the ones a
//! [`crate::spans::TimedHook`] captured; the harness does not own the
//! HTTP and audio simulations, so those packets are generated from the
//! seed in the shapes `benches/jit_vs_native.rs` uses.

use bytes::Bytes;
use netsim::packet::{addr, Packet, TcpHdr};
use netsim::rng::SplitMix64;
use planp_analysis::Policy;
use planp_apps::audio::AUDIO_ROUTER_ASP;
use planp_apps::chaos::{DATA_PORT, FRAGILE_RELAY_ASP};
use planp_apps::http::{HTTP_GATEWAY_ASP, SERVER0_ADDR, SERVER1_ADDR, VIRTUAL_ADDR};
use planp_runtime::convert::{packet_to_value, value_to_packet};
use planp_runtime::{load, LoadedProgram};
use planp_vm::interp::Interp;
use planp_vm::{audio, Effect, MockEnv, Value};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// At most this many packets per ASP.
pub const MAX_PACKETS: usize = 4096;
/// Each stage is timed over this many passes; the median pass counts.
const PASSES: usize = 5;
/// Packets an engine pass runs in one `MockEnv` before it takes a
/// fresh one.
const ENV_PACKETS: usize = 64;

/// Which bundled ASP a replay exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Relay,
    Http,
    Audio,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Relay => "relay",
            Kind::Http => "http",
            Kind::Audio => "audio",
        }
    }

    fn source(self) -> (&'static str, Policy) {
        match self {
            Kind::Relay => (FRAGILE_RELAY_ASP, Policy::no_delivery()),
            Kind::Http => (HTTP_GATEWAY_ASP, Policy::strict()),
            Kind::Audio => (AUDIO_ROUTER_ASP, Policy::strict()),
        }
    }
}

/// Per-packet nanoseconds (raw wall) of each stage, and the exact
/// counts the replay produced.
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    pub packets: usize,
    pub convert_in_ns: f64,
    pub convert_out_ns: f64,
    pub jit_ns: f64,
    pub interp_ns: f64,
    pub native_ns: f64,
    /// VM steps per packet on the JIT (the interpreter must agree).
    pub steps_per_packet: f64,
    /// `packet_to_value` attempts per dispatched packet, following the
    /// layer's rule (untagged traffic tries the `network` overloads in
    /// declaration order).
    pub decode_attempts: f64,
    /// Packets re-emitted or delivered by the JIT pass.
    pub emitted: usize,
}

/// HTTP-gateway packets: port-80 segments to the virtual address from
/// seeded client addresses and ports, as the gateway's clients send.
pub fn http_packets(seed: u64, n: usize) -> Vec<Packet> {
    let mut rng = SplitMix64::new(seed ^ 0x4854_5450);
    (0..n)
        .map(|i| {
            let host = 10 + (rng.next_u64() % 8) as u8;
            let sport = 10_000 + (rng.next_u64() % 4_000) as u16;
            let doc = rng.next_u64() % 1_000;
            Packet::tcp(
                addr(10, 0, 1, host),
                VIRTUAL_ADDR,
                TcpHdr::data(sport, 80, i as u32),
                Bytes::from(format!("GET /doc/{doc}\n").into_bytes()),
            )
        })
        .collect()
}

/// Audio-router packets: full-quality 16-bit stereo frames (1 format
/// byte, 8-byte sequence, 1100 sample bytes) to a multicast group.
pub fn audio_packets(seed: u64, n: usize) -> Vec<Packet> {
    let mut rng = SplitMix64::new(seed ^ 0x4155_4449);
    (0..n)
        .map(|i| {
            let mut payload = vec![0u8];
            payload.extend_from_slice(&(i as i64).to_be_bytes());
            payload.extend(std::iter::repeat_n((rng.next_u64() & 0xff) as u8, 1100));
            Packet::udp(
                addr(10, 0, 0, 1),
                addr(224, 1, 2, 3),
                7777,
                7777,
                Bytes::from(payload),
            )
        })
        .collect()
}

/// The native ("built-in C") body for each ASP, on packet values like
/// the engines: the `jit_vs_native` bodies plus a native relay.
struct Native {
    kind: Kind,
    conns: HashMap<(u32, u16), u32>,
    next: u64,
}

impl Native {
    fn run(&mut self, pkt: &Value, env: &MockEnv) -> Value {
        let Value::Tuple(parts) = pkt else {
            unreachable!("replay packets are tuples")
        };
        match self.kind {
            Kind::Relay => {
                let (Value::Ip(ip), Value::Udp(udp), Value::Blob(body)) =
                    (&parts[0], &parts[1], &parts[2])
                else {
                    unreachable!("relay packets are ip*udp*blob")
                };
                let data = udp.dport == DATA_PORT && body.len() >= 8;
                black_box(data && ip.dst == env.host);
                pkt.clone()
            }
            Kind::Http => {
                let (Value::Ip(ip), Value::Tcp(tcp)) = (&parts[0], &parts[1]) else {
                    unreachable!("http packets are ip*tcp*blob")
                };
                let next = &mut self.next;
                let chosen = *self.conns.entry((ip.src, tcp.sport)).or_insert_with(|| {
                    *next += 1;
                    [SERVER0_ADDR, SERVER1_ADDR][(*next % 2) as usize]
                });
                let mut ip2 = *ip;
                ip2.dst = chosen;
                Value::tuple(vec![Value::Ip(ip2), parts[1].clone(), parts[2].clone()])
            }
            Kind::Audio => {
                let Value::Blob(body) = &parts[2] else {
                    unreachable!("audio packets are ip*udp*blob")
                };
                let util = env.load * 100 / (env.capacity + 1);
                if util > 80 && body.len() > 9 && body[0] == 0 {
                    let pcm = audio::pcm16_to_8(&audio::stereo_to_mono(&body[9..]));
                    let mut out = Vec::with_capacity(9 + pcm.len());
                    out.push(2u8);
                    out.extend_from_slice(&body[1..9]);
                    out.extend_from_slice(&pcm);
                    Value::tuple(vec![
                        parts[0].clone(),
                        parts[1].clone(),
                        Value::Blob(Bytes::from(out)),
                    ])
                } else {
                    pkt.clone()
                }
            }
        }
    }
}

fn env_for(kind: Kind) -> MockEnv {
    let mut env = MockEnv::new(addr(10, 0, 1, 254));
    if kind == Kind::Audio {
        // High load, so the router takes its degradation path.
        env.load = 9_500;
        env.capacity = 10_000;
    }
    env
}

/// Median over `PASSES` of the per-packet time of `pass`.
fn per_packet_ns(n: usize, mut pass: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / n.max(1) as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[PASSES / 2]
}

/// The channel the layer would dispatch `pkt` to, its decoded value,
/// and how many decodes it took to find.
fn dispatch(image: &LoadedProgram, pkt: &Packet) -> Option<(usize, Value, usize)> {
    let group = image.prog.chan_groups.get("network")?;
    for (tries, &idx) in group.iter().enumerate() {
        if let Some(v) = packet_to_value(pkt, &image.prog.channels[idx].shape) {
            return Some((idx, v, tries + 1));
        }
    }
    None
}

/// Replays `packets` through every stage of `kind`'s ASP.
///
/// # Panics
///
/// Panics if the bundled ASP does not load, a replay packet matches no
/// `network` overload, or the engines disagree on the step count —
/// each of which means the replay no longer measures the hook's work.
pub fn replay(kind: Kind, packets: &[Packet]) -> StageTimes {
    let packets = &packets[..packets.len().min(MAX_PACKETS)];
    let n = packets.len();
    if n == 0 {
        return StageTimes::default();
    }
    let (src, policy) = kind.source();
    let image = load(src, policy).expect("bundled ASP loads");
    let globals = image
        .compiled
        .eval_globals(&mut env_for(kind))
        .expect("globals evaluate");

    let mut attempts = 0usize;
    let inputs: Vec<(usize, Value)> = packets
        .iter()
        .map(|p| {
            let (idx, v, tries) = dispatch(&image, p).expect("replay packet matches a channel");
            attempts += tries;
            (idx, v)
        })
        .collect();

    let convert_in_ns = per_packet_ns(n, || {
        for p in packets {
            black_box(dispatch(&image, black_box(p)));
        }
    });

    // One pass of an engine: the installed state, like a fresh layer,
    // with protocol and channel state threaded from packet to packet.
    // Returns the steps charged and hands every packet emitted to
    // `emitted`. The layer is done with a dispatch's effects before the
    // next dispatch; the replay gets the same by starting a fresh
    // `MockEnv` every `ENV_PACKETS` packets, so what one packet records
    // does not pile up under the next, and the replay need not know
    // which fields a `MockEnv` records into beyond `steps` and `effects`.
    type Step<'a> = &'a dyn Fn(usize, Value, Value, Value, &mut MockEnv) -> (Value, Value);
    let engine_pass = |step: Step<'_>, emitted: &mut dyn FnMut(Effect)| -> u64 {
        let mut env = env_for(kind);
        let mut ps = image
            .compiled
            .init_proto(&globals, &mut env)
            .expect("proto state");
        let mut ss: Vec<Value> = (0..image.prog.channels.len())
            .map(|i| {
                image
                    .compiled
                    .init_channel_state(i, &globals, &mut env)
                    .expect("channel state")
            })
            .collect();
        let mut steps = 0;
        for batch in inputs.chunks(ENV_PACKETS) {
            for (idx, v) in batch {
                let (ps2, ss2) = step(*idx, ps, ss[*idx].clone(), black_box(v.clone()), &mut env);
                ps = ps2;
                ss[*idx] = ss2;
            }
            let done = std::mem::replace(&mut env, env_for(kind));
            steps += done.steps;
            done.effects.into_iter().for_each(&mut *emitted);
        }
        black_box(&ps);
        steps
    };
    let jit: Step<'_> = &|idx, ps, ss, v, env| {
        image
            .compiled
            .run_channel(idx, &globals, ps, ss, v, env)
            .expect("JIT runs the replay packet")
    };
    let interp = Interp::new(&image.prog);
    let interp: Step<'_> = &|idx, ps, ss, v, env| {
        interp
            .run_channel(idx, &globals, ps, ss, v, env)
            .expect("interpreter runs the replay packet")
    };

    let mut outputs: Vec<Value> = Vec::new();
    let jit_steps = engine_pass(jit, &mut |e| match e {
        Effect::Remote { pkt, .. } | Effect::Neighbor { pkt, .. } | Effect::Deliver(pkt) => {
            outputs.push(pkt);
        }
    });
    let jit_ns = per_packet_ns(n, || {
        black_box(engine_pass(jit, &mut drop));
    });
    let mut interp_steps = 0;
    let interp_ns = per_packet_ns(n, || interp_steps = engine_pass(interp, &mut drop));
    assert_eq!(
        jit_steps,
        interp_steps,
        "{}: JIT and interpreter charge different step counts",
        kind.name()
    );

    let env = env_for(kind);
    let native_ns = per_packet_ns(n, || {
        let mut native = Native {
            kind,
            conns: HashMap::new(),
            next: 0,
        };
        for (_, v) in &inputs {
            black_box(native.run(black_box(v), &env));
        }
    });

    let convert_out_ns = if outputs.is_empty() {
        0.0
    } else {
        // Per *input* packet, so the stages add up to one hook call.
        per_packet_ns(n, || {
            for v in &outputs {
                black_box(value_to_packet(black_box(v), None).expect("emitted value is a packet"));
            }
        })
    };

    StageTimes {
        packets: n,
        convert_in_ns,
        convert_out_ns,
        jit_ns,
        interp_ns,
        native_ns,
        steps_per_packet: jit_steps as f64 / n as f64,
        decode_attempts: attempts as f64 / n as f64,
        emitted: outputs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planp_apps::chaos::apps::data_packet;

    #[test]
    fn generated_packets_follow_the_seed() {
        assert_eq!(http_packets(3, 16), http_packets(3, 16));
        assert_ne!(http_packets(3, 16), http_packets(4, 16));
        assert_eq!(audio_packets(3, 4), audio_packets(3, 4));
        assert_eq!(audio_packets(3, 4)[0].payload.len(), 1109);
    }

    #[test]
    fn every_kind_replays_and_emits() {
        let relay: Vec<Packet> = (0..32)
            .map(|i| data_packet(addr(10, 0, 0, 1), addr(10, 0, 7, 1), i))
            .collect();
        for (kind, packets) in [
            (Kind::Relay, relay),
            (Kind::Http, http_packets(11, 32)),
            (Kind::Audio, audio_packets(11, 32)),
        ] {
            let t = replay(kind, &packets);
            assert_eq!(t.packets, 32, "{kind:?}");
            assert_eq!(t.emitted, 32, "{kind:?}: one packet out per packet in");
            assert!(t.steps_per_packet > 1.0, "{kind:?}");
            assert!(t.decode_attempts >= 1.0, "{kind:?}");
            assert!(
                t.jit_ns > 0.0 && t.interp_ns > 0.0 && t.native_ns > 0.0,
                "{kind:?}"
            );
            assert!(t.convert_in_ns > 0.0 && t.convert_out_ns > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn empty_replay_is_all_zero() {
        assert_eq!(replay(Kind::Relay, &[]).packets, 0);
    }
}
