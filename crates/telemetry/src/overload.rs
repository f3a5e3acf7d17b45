//! Deterministic overload posture: the brownout controller and the
//! shared view of it the rest of the stack reads.
//!
//! The controller is a pure state machine over `HealthMonitor`
//! evaluation windows — no clocks, no randomness — so two runs of the
//! same scenario step through byte-identical degradation levels. A
//! breached window steps the level up immediately, to at most
//! [`MAX_LEVEL`]; recovery is *hysteretic*: the level steps down only
//! after [`STEP_DOWN_WINDOWS`] consecutive clean windows, so a flapping
//! SLO cannot oscillate the cluster between full service and shedding.
//!
//! [`OverloadState`] is the cheap, always-current summary carried by
//! [`Telemetry`](crate::Telemetry): the current brownout level plus the
//! per-backend circuit-breaker states the gateway reports. Admission
//! control reads the level on the packet path; flight dumps stamp the
//! whole summary into post-mortems.

use crate::event::BreakerState;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The always-current overload posture shared through `Telemetry`.
#[derive(Debug, Default)]
pub struct OverloadState {
    /// Current brownout degradation level (0 = full service). Priority
    /// classes strictly below this level are shed at admission.
    pub brownout_level: u32,
    /// Last-reported circuit-breaker state per backend name.
    breakers: BTreeMap<String, BreakerState>,
}

impl OverloadState {
    /// Whether a packet of priority class `prio` is shed at the current
    /// brownout level: classes strictly below the level are. The PLAN-P
    /// layer's admission and the cluster gateway both shed by this rule.
    #[inline]
    pub fn sheds(&self, prio: u8) -> bool {
        u32::from(prio) < self.brownout_level
    }

    /// Records `backend`'s breaker state (the gateway calls this on
    /// every transition).
    pub fn set_breaker(&mut self, backend: &str, state: BreakerState) {
        self.breakers.insert(backend.to_string(), state);
    }

    /// The last-reported breaker state for `backend` (`Closed` when
    /// never reported).
    pub fn breaker(&self, backend: &str) -> BreakerState {
        self.breakers.get(backend).copied().unwrap_or_default()
    }

    /// A byte-stable one-line summary for flight dumps: the brownout
    /// level plus every breaker *not* in the healthy closed state, in
    /// backend-name order.
    pub fn summary(&self) -> String {
        let mut out = format!("brownout={}", self.brownout_level);
        let mut first = true;
        for (name, st) in &self.breakers {
            if *st == BreakerState::Closed {
                continue;
            }
            let _ = if first {
                write!(out, " breakers={name}:{}", st.name())
            } else {
                write!(out, ",{name}:{}", st.name())
            };
            first = false;
        }
        out
    }
}

/// Highest degradation level the controller steps to: one per shed-able
/// priority class below gold, of the cluster's four.
pub const MAX_LEVEL: u32 = 3;

/// Consecutive clean evaluation windows required before stepping one
/// level back down (the hysteresis band).
pub const STEP_DOWN_WINDOWS: u32 = 3;

/// The deterministic brownout state machine, fed one observation per
/// `HealthMonitor` evaluation window by the simulator.
#[derive(Debug, Default)]
pub struct BrownoutController {
    level: u32,
    clean_streak: u32,
    /// Every transition taken: `(t_ns, from_level, to_level, rule)`.
    transitions: Vec<(u64, u32, u32, String)>,
}

impl BrownoutController {
    /// The current degradation level.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Feeds one evaluation window: `breached` names the first breached
    /// rule, or `None` for a clean window. Returns the transition taken
    /// (`(from, to, rule)`) if the level changed; step-downs carry the
    /// rule label `"recovered"`.
    pub fn observe_window(
        &mut self,
        t_ns: u64,
        breached: Option<&str>,
    ) -> Option<(u32, u32, String)> {
        match breached {
            Some(rule) => {
                self.clean_streak = 0;
                if self.level >= MAX_LEVEL {
                    return None;
                }
                let from = self.level;
                self.level += 1;
                self.transitions
                    .push((t_ns, from, self.level, rule.to_string()));
                Some((from, self.level, rule.to_string()))
            }
            None => {
                self.clean_streak += 1;
                if self.level == 0 || self.clean_streak < STEP_DOWN_WINDOWS {
                    return None;
                }
                self.clean_streak = 0;
                let from = self.level;
                self.level -= 1;
                self.transitions
                    .push((t_ns, from, self.level, "recovered".to_string()));
                Some((from, self.level, "recovered".to_string()))
            }
        }
    }

    /// Every transition taken so far, in order.
    pub fn transitions(&self) -> &[(u64, u32, u32, String)] {
        &self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_up_on_breach_and_caps_at_max() {
        let mut b = BrownoutController::default();
        for level in 1..=MAX_LEVEL {
            assert_eq!(
                b.observe_window(u64::from(level), Some("p99")),
                Some((level - 1, level, "p99".into()))
            );
        }
        assert_eq!(b.observe_window(10, Some("p99")), None, "capped at 3");
        assert_eq!(b.level(), 3);
        assert_eq!(b.transitions().len(), 3);
    }

    #[test]
    fn restores_hysteretically_after_three_clean_windows() {
        let mut b = BrownoutController::default();
        b.observe_window(1, Some("err"));
        assert_eq!(
            b.observe_window(2, None),
            None,
            "one clean window is not enough"
        );
        assert_eq!(b.observe_window(3, None), None, "nor are two");
        assert_eq!(b.observe_window(4, None), Some((1, 0, "recovered".into())));
        assert_eq!(b.level(), 0);
        assert_eq!(b.observe_window(5, None), None, "already at full service");
    }

    #[test]
    fn breach_resets_the_clean_streak() {
        let mut b = BrownoutController::default();
        b.observe_window(1, Some("err"));
        b.observe_window(2, None);
        b.observe_window(3, None);
        b.observe_window(4, Some("err")); // streak back to zero, level 2
        assert_eq!(b.level(), 2);
        assert_eq!(b.observe_window(5, None), None);
        assert_eq!(b.observe_window(6, None), None);
        assert_eq!(b.observe_window(7, None), Some((2, 1, "recovered".into())));
    }

    #[test]
    fn sheds_classes_strictly_below_the_level() {
        let mut s = OverloadState::default();
        assert!(!s.sheds(0), "level 0 sheds nothing");
        s.brownout_level = 2;
        assert!(s.sheds(0) && s.sheds(1));
        assert!(!s.sheds(2) && !s.sheds(255));
    }

    #[test]
    fn summary_lists_only_unhealthy_breakers_in_name_order() {
        let mut s = OverloadState::default();
        assert_eq!(s.summary(), "brownout=0");
        s.set_breaker("b2", BreakerState::Open);
        s.set_breaker("b1", BreakerState::HalfOpen);
        s.set_breaker("b3", BreakerState::Closed);
        s.brownout_level = 2;
        assert_eq!(s.summary(), "brownout=2 breakers=b1:half_open,b2:open");
        assert_eq!(s.breaker("b2"), BreakerState::Open);
        assert_eq!(s.breaker("b9"), BreakerState::Closed);
    }
}
