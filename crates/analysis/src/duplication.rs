//! Safe (linear) packet-duplication analysis (paper section 2.1).
//!
//! The property: packet duplication is at most linear — processing one
//! packet can fan out into several, but the fan-out must not compound
//! hop after hop into exponential growth.
//!
//! Following the paper, this is a fix-point computation that assigns a
//! boolean (`may_copy`) to each channel per iteration:
//!
//! * a channel **may copy** if some execution path performs two or more
//!   network sends, or at least one send whose *target* may copy, or a
//!   send to a known multicast group (the network fans those out);
//! * the program is **safe** if no execution path contains more than one
//!   send whose target may copy — i.e. copies are made at most once along
//!   any packet's lifetime, so growth is linear.
//!
//! The fix-point is monotone over the finite lattice of boolean vectors,
//! so it converges in at most `channels + 1` iterations (the paper's
//! bound is `2^c` state explorations; ours is tighter because we iterate
//! the vector directly).

use crate::diag::Diagnostic;
use crate::paths::{is_send, program_bounds, Bound};
use crate::summary::{ProgramSummary, SendSite};
use crate::verifier::Outcome;
use planp_lang::tast::TProgram;

/// Result of the fix-point: which channels may produce more than one
/// downstream packet per input packet.
#[derive(Debug, Clone, Default)]
pub struct DuplicationInfo {
    /// `may_copy[c]` for each channel index.
    pub may_copy: Vec<bool>,
    /// Number of fix-point iterations performed.
    pub iterations: usize,
}

/// Total weight of the sends on a path, saturating at [`Weight::CAP`].
#[derive(Clone, Copy)]
struct Weight(u32);

impl Weight {
    /// 3 is enough to distinguish 0, 1, and "2 or more".
    const CAP: u32 = 3;
}

impl Bound for Weight {
    fn then(self, next: Weight) -> Weight {
        Weight((self.0 + next.0).min(Weight::CAP))
    }

    fn or(self, other: Weight) -> Weight {
        Weight(self.0.max(other.0))
    }
}

/// Per channel, the maximum over all execution paths of the summed
/// weight of the executed sends, where `weigh` prices the [`SendSite`]
/// `sum` recorded for a send node. The lookup is a linear scan, at send
/// nodes only; a send `sum` does not know weighs the cap.
fn path_weights(
    prog: &TProgram,
    sum: &ProgramSummary,
    weigh: impl Fn(&SendSite) -> u32,
) -> Vec<Weight> {
    let (_, channels) = program_bounds(prog, |e| {
        if is_send(&e.kind) {
            Weight(sum.site_at(e.span).map_or(Weight::CAP, &weigh))
        } else {
            Weight(0)
        }
    });
    channels
}

/// True if a send to `site` may reach more than one receiver, given the
/// channels known to copy.
fn copies(site: &SendSite, may_copy: &[bool]) -> bool {
    may_copy[site.target] || site.dest.is_multicast_const()
}

/// Runs the may-copy fix-point over the send sites of `sum`.
/// [`summarize`](crate::summary::summarize) runs it once and keeps the
/// result in [`ProgramSummary::duplication`].
pub fn compute_may_copy(prog: &TProgram, sum: &ProgramSummary) -> DuplicationInfo {
    let n = prog.channels.len();
    let mut may_copy = vec![false; n];
    let mut iterations = 0;

    loop {
        iterations += 1;
        // Weight of a send: 2 if it copies, else 1. A path of weight
        // >= 2 means the channel can turn one packet into more than one.
        let weights = path_weights(prog, sum, |s| 1 + copies(s, &may_copy) as u32);
        let mut changed = false;
        for (copy, w) in may_copy.iter_mut().zip(weights) {
            if w.0 >= 2 && !*copy {
                *copy = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // Monotone over a finite lattice; n + 1 iterations suffice.
        assert!(
            iterations <= n + 1,
            "duplication fix-point failed to converge"
        );
    }

    DuplicationInfo {
        may_copy,
        iterations,
    }
}

/// Checks linear duplication: at most one *copying* send per execution
/// path, in every channel. (A copying channel inside a cycle with itself
/// would compound, but the model checker already rejects
/// destination-changing cycles and progress-only cycles deliver, so
/// per-path linearity plus termination gives global linearity.)
pub fn check_duplication(prog: &TProgram, sum: &ProgramSummary) -> Outcome {
    let may_copy = &sum.duplication.may_copy;
    // Weight counts only copying sends.
    let weights = path_weights(prog, sum, |s| copies(s, may_copy) as u32);
    let errors: Vec<Diagnostic> = prog
        .channels
        .iter()
        .zip(weights)
        .filter(|(_, w)| w.0 >= 2)
        .map(|(ch, Weight(copying_sends))| {
            Diagnostic::error(
                "E003",
                ch.span,
                format!(
                    "channel `{}` can execute {copying_sends} sends to copying channels on one path — packet duplication may be exponential",
                    ch.name
                ),
            )
        })
        .collect();
    if errors.is_empty() {
        Outcome::Proved
    } else {
        Outcome::Rejected(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summarize;
    use planp_lang::compile_front;

    fn front(src: &str) -> (TProgram, ProgramSummary) {
        let tp = compile_front(src).unwrap_or_else(|e| panic!("front: {e}\n{src}"));
        let sum = summarize(&tp);
        (tp, sum)
    }

    #[test]
    fn single_forward_is_linear() {
        let (tp, sum) = front(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(network, p); (ps, ss))",
        );
        let info = compute_may_copy(&tp, &sum);
        assert_eq!(info.may_copy, vec![false]);
        assert!(check_duplication(&tp, &sum).is_proved());
    }

    #[test]
    fn double_send_to_terminal_is_linear() {
        // Two copies handed to a channel that never re-sends: linear fan-out.
        let (tp, sum) = front(
            "channel sink(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))\n\
             channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnNeighbor(sink, 10.0.0.2, p); OnNeighbor(sink, 10.0.0.3, p); (ps, ss))",
        );
        let info = compute_may_copy(&tp, &sum);
        // `network` itself copies…
        assert_eq!(info.may_copy, vec![false, true]);
        // …but no path has two sends to *copying* channels.
        assert!(check_duplication(&tp, &sum).is_proved());
    }

    #[test]
    fn double_send_to_copying_channel_rejected() {
        // `fan` duplicates; `network` sends to `fan` twice: 1 → 2 → 4 → …
        let (tp, sum) = front(
            "channel sink(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))\n\
             channel fan(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnNeighbor(sink, 10.0.0.2, p); OnNeighbor(sink, 10.0.0.3, p); (ps, ss))\n\
             channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnNeighbor(fan, 10.0.0.4, p); OnNeighbor(fan, 10.0.0.5, p); (ps, ss))",
        );
        let info = compute_may_copy(&tp, &sum);
        assert!(info.may_copy[1] && info.may_copy[2]);
        let out = check_duplication(&tp, &sum);
        let Outcome::Rejected(errs) = out else {
            panic!("expected rejection")
        };
        assert!(errs[0].message.contains("exponential"));
    }

    #[test]
    fn may_copy_propagates_through_chain() {
        let (tp, sum) = front(
            "channel sink(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))\n\
             channel fan(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnNeighbor(sink, 10.0.0.2, p); OnNeighbor(sink, 10.0.0.3, p); (ps, ss))\n\
             channel relay(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnNeighbor(fan, 10.0.0.4, p); (ps, ss))",
        );
        let info = compute_may_copy(&tp, &sum);
        // relay forwards once to a copying channel → relay itself may copy.
        assert_eq!(info.may_copy, vec![false, true, true]);
        assert!(info.iterations >= 2);
        // Still linear: each path has at most one copying send.
        assert!(check_duplication(&tp, &sum).is_proved());
    }

    #[test]
    fn multicast_send_counts_as_copying() {
        let (tp, sum) = front(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(network, (ipDestSet(#1 p, 224.0.0.5), #2 p, #3 p));\n\
              OnRemote(network, (ipDestSet(#1 p, 224.0.0.6), #2 p, #3 p));\n\
              (ps, ss))",
        );
        let out = check_duplication(&tp, &sum);
        assert!(!out.is_proved());
    }

    #[test]
    fn branching_sends_are_not_cumulative() {
        // One send per path even though two sites exist.
        let (tp, sum) = front(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             (if ps > 0 then OnRemote(network, p) else OnRemote(network, p); (ps, ss))",
        );
        let info = compute_may_copy(&tp, &sum);
        assert_eq!(info.may_copy, vec![false]);
        assert!(check_duplication(&tp, &sum).is_proved());
    }
}
