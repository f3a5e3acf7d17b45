//! Per-site execution profiles: the always-on VM profiler.
//!
//! Both engines attribute every charged VM step to an expression
//! **site** (a site id is the node's source span start offset): the
//! interpreter one node at a time (`NetEnv::charge_site`), the bytecode
//! tier a run's basic blocks at a time (`NetEnv::charge_blocks`). The
//! runtime layer forwards those charges, as they arrive, into a
//! [`ProfileRegistry`] scope — one scope per `node × channel overload`
//! — which also holds the static per-site step bounds and
//! superinstruction candidates computed by `planp-analysis::profile`.
//! What a scope knows statically is a [`ScopeShape`], built once per
//! program and channel overload and shared by every node that runs it.
//! Charging touches no map and allocates nothing: a scope counts in a
//! dense array parallel to its declared sites, and a block charge —
//! a run of consecutive positions of the compiled program's site pool
//! the shape indexes — is two adds into a difference array over those
//! positions, whatever the block's length. The prefix sums are taken
//! when something reads the counters: once per scope by an export, into
//! buffers it reuses from scope to scope, or into the per-site map view
//! ([`ScopeProfile::sites`]). Everything downstream is a deterministic
//! join of observed and static:
//!
//! * [`ProfileRegistry::collapsed_flame`] — flamegraph collapsed-stack
//!   lines (`planp;node;chan#ov;site-label count`);
//! * [`ProfileRegistry::heatmap`] — per-site **utilization** rows,
//!   `observed / (bound × dispatches)` in permille, flagging sites at
//!   ≥ 80% of their bound (`hot`) and sites with ≥ 10× slack
//!   (`slack`);
//! * [`ProfileRegistry::superinstruction_report`] — the static
//!   candidates ranked by observed steps: which fused instructions of
//!   the bytecode tier earn their keep, and which shapes to fuse next;
//! * [`ProfileRegistry::to_json`] — the whole registry, byte-stable.
//!
//! Soundness is checked live: [`ProfileRegistry::record`] verifies
//! Σ per-site == aggregate on every recorded dispatch and counts
//! violations in [`ScopeProfile::mismatches`] (asserted zero by the
//! test suite and the `planp profile` baseline).
//!
//! At scale the profiler samples like the trace log: a registry-wide
//! `1/N` dispatch rate ([`ProfileRegistry::set_sample`], the same
//! dialect as `TraceConfig::parse_sample`), deterministic per scope.
//! Skipped dispatches are counted, never silently dropped.

use crate::json::{push_escaped, push_str, push_u64, Seq};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Static metadata of one site within a scope.
#[derive(Debug, Clone)]
struct SiteMeta {
    /// Human label, `line:col:kind` (flame-frame safe).
    label: String,
    /// Static step bound per dispatch.
    bound: u64,
    /// The site's row of [`ProfileRegistry::to_json`] less its observed
    /// steps, which go at the `usize`: everything in the row but that
    /// count is the same in every scope of the shape, so the first
    /// export that needs it writes it, once.
    json: OnceCell<(String, usize)>,
}

impl SiteMeta {
    /// The JSON row of this site, `site`, before and after its
    /// observed steps.
    fn json_row(&self, site: u32) -> (&str, &str) {
        let (row, at) = self.json.get_or_init(|| {
            let mut row = String::with_capacity(64 + self.label.len());
            push_row_head(&mut row, site);
            let at = row.len();
            push_row_tail(&mut row, self.bound, &self.label);
            (row, at)
        });
        row.split_at(*at)
    }
}

/// Appends the start of a site's `to_json` row, up to its observed
/// steps: `{"site":<site>,"observed":`.
fn push_row_head(out: &mut String, site: u32) {
    out.push_str("{\"site\":");
    push_u64(out, u64::from(site));
    out.push_str(",\"observed\":");
}

/// Appends the rest of a site's `to_json` row after its observed
/// steps: `,"bound":<bound>,"label":<label>}`.
fn push_row_tail(out: &mut String, bound: u64, label: &str) {
    out.push_str(",\"bound\":");
    push_u64(out, bound);
    out.push_str(",\"label\":");
    push_str(out, label);
    out.push('}');
}

/// A static superinstruction candidate attached to a scope.
#[derive(Debug, Clone)]
struct PatternMeta {
    /// Pattern tag (`hdr_compare_branch`, `table_forward`).
    pattern: String,
    /// Participating site ids, ascending.
    sites: Vec<u32>,
    /// `line:col` of the anchoring node.
    label: String,
}

/// Handle to a declared profile scope (pre-resolved, cheap to copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeId(usize);

/// What a scope knows before it counts anything: one channel overload
/// of one program, its sites' labels and static bounds, its
/// superinstruction candidates, and where a charge at each position of
/// the compiled program's site pool is counted. Built once per program
/// and shared, by `Rc`, by the scope of every node that runs it.
#[derive(Debug)]
pub struct ScopeShape {
    /// Channel name.
    chan: String,
    /// Overload index.
    overload: u32,
    /// Static per-site metadata (label + per-dispatch bound).
    meta: BTreeMap<u32, SiteMeta>,
    /// The declared sites, ascending (the keys of `meta`).
    ids: Vec<u32>,
    /// Static superinstruction candidates in this scope.
    patterns: Vec<PatternMeta>,
    /// Per position of the site pool, where a charge there is counted:
    /// the index into a scope's counts, or (`Err`) the site itself if
    /// this shape does not declare it.
    block_index: Vec<Result<u32, u32>>,
}

impl ScopeShape {
    /// The shape of overload `overload` of channel `chan`: its sites as
    /// `(site, label, bound)`, its candidates as `(pattern, sites,
    /// label)`, and the compiled program's site pool (`pool[p]` is the
    /// site at position `p`), so [`ProfileRegistry::charge_blocks`]
    /// reaches a block's counters by position. Under an empty pool
    /// every block charge is counted one site at a time.
    pub fn new(
        chan: &str,
        overload: u32,
        sites: impl IntoIterator<Item = (u32, String, u64)>,
        patterns: impl IntoIterator<Item = (String, Vec<u32>, String)>,
        pool: &[u32],
    ) -> Self {
        let meta: BTreeMap<u32, SiteMeta> = sites
            .into_iter()
            .map(|(site, label, bound)| {
                let json = OnceCell::new();
                (site, SiteMeta { label, bound, json })
            })
            .collect();
        let ids: Vec<u32> = meta.keys().copied().collect();
        let slot = |site: &u32| match ids.binary_search(site) {
            Ok(i) => Ok(i as u32),
            Err(_) => Err(*site),
        };
        let block_index = pool.iter().map(slot).collect();
        let patterns = patterns
            .into_iter()
            .map(|(pattern, sites, label)| PatternMeta {
                pattern,
                sites,
                label,
            })
            .collect();
        ScopeShape {
            chan: chan.to_string(),
            overload,
            meta,
            ids,
            patterns,
            block_index,
        }
    }
}

/// The accumulated profile of one `node × channel overload`.
#[derive(Debug, Clone)]
pub struct ScopeProfile {
    /// Node display name.
    pub node: String,
    /// Dispatches recorded into this profile.
    pub dispatches: u64,
    /// Dispatches skipped by sampling.
    pub skipped: u64,
    /// Aggregate steps over recorded dispatches.
    pub steps: u64,
    /// Recorded dispatches where Σ per-site ≠ aggregate (soundness
    /// violations; must stay zero).
    pub mismatches: u64,
    /// The channel overload, its static sites and candidates.
    shape: Rc<ScopeShape>,
    /// Observed steps per declared site, parallel to `shape.ids`.
    counts: Vec<u64>,
    /// Observed steps of sites missing from `shape.meta` (must stay
    /// empty).
    stray: BTreeMap<u32, u64>,
    /// Block charges not yet in `counts`/`stray`, as a difference array
    /// over pool positions: `+n` where a charged run begins, `-n` just
    /// past its end (so one slot longer than the pool).
    diff: Vec<i64>,
    /// Steps charged since the last [`ProfileRegistry::record`].
    pending: u64,
}

impl ScopeProfile {
    /// The registry key of this scope.
    pub fn key(&self) -> String {
        scope_key(&self.node, &self.shape.chan, self.shape.overload)
    }

    /// Observed steps per site, ascending, observed sites only
    /// (recorded dispatches only) — the map view of the dense counters.
    pub fn sites(&self) -> BTreeMap<u32, u64> {
        let totals = Totals::of(self);
        let declared = self.shape.ids.iter().copied().zip(totals.counts);
        declared
            .filter(|&(_, n)| n > 0)
            .chain(totals.stray)
            .collect()
    }

    /// Observed sites missing from the static site table (must stay
    /// zero: every site a dispatch can charge is statically known).
    pub fn unknown_sites(&self) -> u64 {
        Totals::of(self).stray.len() as u64
    }

    /// Replaces the shape, carrying observations over: what the blocks
    /// of the old pool charged stays.
    fn redeclare(&mut self, shape: &Rc<ScopeShape>) {
        let observed = self.sites();
        self.shape = shape.clone();
        self.counts = vec![0; shape.ids.len()];
        self.stray.clear();
        self.diff = vec![0; shape.block_index.len() + 1];
        for (site, n) in observed {
            self.add(site, n);
        }
    }

    fn add(&mut self, site: u32, n: u64) {
        match self.shape.ids.binary_search(&site) {
            Ok(i) => self.counts[i] += n,
            Err(_) => *self.stray.entry(site).or_insert(0) += n,
        }
    }
}

fn scope_key(node: &str, chan: &str, overload: u32) -> String {
    let mut key = String::with_capacity(node.len() + chan.len() + 20);
    push_scope_key(&mut key, node, chan, overload, String::push_str);
    key
}

/// Appends `node.<node>.chan.<chan>#<overload>`, each part through
/// `push` (`String::push_str`, or `json::push_escaped` inside a JSON
/// string).
fn push_scope_key(
    out: &mut String,
    node: &str,
    chan: &str,
    overload: u32,
    push: fn(&mut String, &str),
) {
    out.push_str("node.");
    push(out, node);
    out.push_str(".chan.");
    push(out, chan);
    out.push('#');
    push_u64(out, u64::from(overload));
}

/// One scope's observed steps with the block charges still in its
/// `diff` added in — the one pass every export takes over a scope,
/// into buffers it reuses from scope to scope.
#[derive(Debug, Default)]
struct Totals {
    /// Observed steps per declared site, parallel to `shape.ids`.
    counts: Vec<u64>,
    /// Observed steps of undeclared sites, ascending by site.
    stray: Vec<(u32, u64)>,
}

impl Totals {
    fn of(s: &ScopeProfile) -> Self {
        let mut totals = Totals::default();
        totals.fill(s);
        totals
    }

    /// Recomputes the totals for `s`: the running sum of `diff` at a
    /// position is what the blocks charged there.
    fn fill(&mut self, s: &ScopeProfile) {
        self.counts.clear();
        self.counts.extend_from_slice(&s.counts);
        self.stray.clear();
        self.stray
            .extend(s.stray.iter().map(|(&site, &n)| (site, n)));
        let mut here = 0i64;
        for (slot, d) in s.shape.block_index.iter().zip(&s.diff) {
            here += d;
            if here != 0 {
                match *slot {
                    Ok(i) => self.counts[i as usize] += here as u64,
                    Err(site) => match self.stray.binary_search_by_key(&site, |e| e.0) {
                        Ok(j) => self.stray[j].1 += here as u64,
                        Err(j) => self.stray.insert(j, (site, here as u64)),
                    },
                }
            }
        }
    }

    /// Observed steps over `sites`.
    fn observed(&self, shape: &ScopeShape, sites: &[u32]) -> u64 {
        let of = |site: &u32| match shape.ids.binary_search(site) {
            Ok(i) => self.counts[i],
            Err(_) => match self.stray.binary_search_by_key(site, |e| e.0) {
                Ok(j) => self.stray[j].1,
                Err(_) => 0,
            },
        };
        sites.iter().map(of).sum()
    }

    /// Every site of the scope — declared (observed or not) and stray —
    /// ascending: the declared and the stray sites are each ascending
    /// and never share a site, so this merges the two.
    fn rows<'a>(&'a self, shape: &'a ScopeShape) -> impl Iterator<Item = Row<'a>> {
        let declared = shape.meta.iter().zip(&self.counts);
        let mut declared = declared
            .map(|((&site, m), &observed)| Row {
                site,
                observed,
                meta: Some(m),
            })
            .peekable();
        let mut stray = self
            .stray
            .iter()
            .map(|&(site, observed)| Row {
                site,
                observed,
                meta: None,
            })
            .peekable();
        std::iter::from_fn(move || match (declared.peek(), stray.peek()) {
            (Some(d), Some(s)) if s.site < d.site => stray.next(),
            (Some(_), _) => declared.next(),
            (None, _) => stray.next(),
        })
    }
}

/// One site of a scope as the exports list it.
struct Row<'a> {
    site: u32,
    /// Observed steps (recorded dispatches only).
    observed: u64,
    /// What the shape declares of the site; `None` for a site it does
    /// not declare, listed with the label `unknown` and bound 0.
    meta: Option<&'a SiteMeta>,
}

impl Row<'_> {
    fn label(&self) -> &str {
        self.meta.map_or("unknown", |m| &m.label)
    }

    fn bound(&self) -> u64 {
        self.meta.map_or(0, |m| m.bound)
    }
}

/// One row of the utilization heatmap.
#[derive(Debug, Clone)]
pub struct HeatmapRow {
    /// Scope key (`node.<n>.chan.<c>#<ov>`).
    pub scope: String,
    /// Site id.
    pub site: u32,
    /// Site label.
    pub label: String,
    /// Observed steps (recorded dispatches only).
    pub observed: u64,
    /// Static per-dispatch bound.
    pub bound: u64,
    /// Recorded dispatches of the owning scope.
    pub dispatches: u64,
    /// `observed × 1000 / (bound × dispatches)` (0 when unbounded or
    /// undispatched). Sound profiles never exceed 1000.
    pub permille: u64,
    /// Utilization ≥ 80% of the bound — a tight bound, and a hot site.
    pub hot: bool,
    /// Bound ≥ 10× observed on a dispatched scope — static slack worth
    /// tightening.
    pub slack: bool,
}

/// The per-site profile registry (one per [`crate::Telemetry`]).
#[derive(Debug)]
pub struct ProfileRegistry {
    scopes: Vec<ScopeProfile>,
    index: BTreeMap<String, usize>,
    /// Sampling denominator (1 = record every dispatch).
    sample_n: u32,
}

impl Default for ProfileRegistry {
    fn default() -> Self {
        ProfileRegistry {
            scopes: Vec::new(),
            index: BTreeMap::new(),
            sample_n: 1,
        }
    }
}

impl ProfileRegistry {
    /// Declares (or re-resolves) the scope of `shape` on `node`,
    /// `node.<node>.chan.<chan>#<ov>`.
    ///
    /// Idempotent by key: a redeploy or crash-restart re-declares the
    /// same scope and keeps the accumulated profile under the new shape.
    pub fn declare(&mut self, node: &str, shape: &Rc<ScopeShape>) -> ScopeId {
        let next = self.scopes.len();
        let key = scope_key(node, &shape.chan, shape.overload);
        let i = *self.index.entry(key).or_insert(next);
        if i < next {
            self.scopes[i].redeclare(shape);
            return ScopeId(i);
        }
        self.scopes.push(ScopeProfile {
            node: node.to_string(),
            dispatches: 0,
            skipped: 0,
            steps: 0,
            mismatches: 0,
            shape: shape.clone(),
            counts: vec![0; shape.ids.len()],
            stray: BTreeMap::new(),
            diff: vec![0; shape.block_index.len() + 1],
            pending: 0,
        });
        ScopeId(i)
    }

    /// Sets the sampling denominator: record 1 of every `n` dispatches
    /// per scope (0 and 1 both mean every dispatch). Same dialect as
    /// `TraceConfig::parse_sample`.
    pub fn set_sample(&mut self, n: u32) {
        self.sample_n = n.max(1);
    }

    /// Decides (and counts) whether the next dispatch of `id` is
    /// profiled: deterministic per-scope `1/N` — the first dispatch is
    /// always kept, then every `N`th.
    #[inline]
    pub fn should_profile(&mut self, id: ScopeId) -> bool {
        let n = self.sample_n as u64;
        let s = &mut self.scopes[id.0];
        let seq = s.dispatches + s.skipped;
        if n <= 1 || seq.is_multiple_of(n) {
            true
        } else {
            s.skipped += 1;
            false
        }
    }

    /// Attributes `n` steps to `site` in the dispatch of `id` being
    /// profiled.
    pub fn charge_site(&mut self, id: ScopeId, site: u32, n: u64) {
        let s = &mut self.scopes[id.0];
        s.pending += n;
        s.add(site, n);
    }

    /// Attributes `n` steps to each site of each run `(first, len)` of
    /// `blocks`, `pool[first..first + len]` of the bound pool: the block
    /// charges of one bytecode run, all under one lookup of the scope.
    pub fn charge_blocks(&mut self, id: ScopeId, pool: &[u32], blocks: &[(u32, u32)], n: u64) {
        let s = &mut self.scopes[id.0];
        for &(first, len) in blocks {
            let (first, end) = (first as usize, (first + len) as usize);
            s.pending += n * u64::from(len);
            if end < s.diff.len() {
                s.diff[first] += n as i64;
                s.diff[end] -= n as i64;
            } else {
                pool[first..end].iter().for_each(|&site| s.add(site, n));
            }
        }
    }

    /// Closes one profiled dispatch with its `charge_steps` aggregate:
    /// verifies Σ per-site charges since the last call == aggregate,
    /// counting violations in [`ScopeProfile::mismatches`].
    #[inline]
    pub fn record(&mut self, id: ScopeId, steps: u64) {
        let s = &mut self.scopes[id.0];
        s.dispatches += 1;
        s.steps += steps;
        if std::mem::take(&mut s.pending) != steps {
            s.mismatches += 1;
        }
    }

    /// All scopes, in key order (deterministic).
    pub fn scopes(&self) -> impl Iterator<Item = &ScopeProfile> {
        self.index.values().map(|&i| &self.scopes[i])
    }

    /// The scope behind `id`.
    pub fn scope(&self, id: ScopeId) -> &ScopeProfile {
        &self.scopes[id.0]
    }

    /// Total soundness violations across all scopes (must stay zero).
    pub fn mismatches(&self) -> u64 {
        self.scopes.iter().map(|s| s.mismatches).sum()
    }

    /// Calls `f` with every scope, in key order, and its totals: the
    /// one pass over the scopes' counters that the exports share.
    fn each_scope<'a>(&'a self, mut f: impl FnMut(&'a ScopeProfile, &Totals)) {
        let mut totals = Totals::default();
        for s in self.scopes() {
            totals.fill(s);
            f(s, &totals);
        }
    }

    /// Flamegraph collapsed-stack lines, one per observed site:
    /// `planp;<node>;<chan>#<ov>;<site-label> <steps>`. Scopes in key
    /// order, sites ascending — byte-stable. Feed to
    /// `flamegraph.pl` / speedscope / inferno unchanged.
    pub fn collapsed_flame(&self) -> String {
        let mut out = String::new();
        self.each_scope(|s, totals| {
            // The scope's frames, `planp;<node>;<chan>#<ov>;`: written
            // on its first line, copied on the others.
            let mut frames = None;
            for r in totals.rows(&s.shape).filter(|r| r.observed > 0) {
                match frames.clone() {
                    Some(at) => out.extend_from_within(at),
                    None => {
                        let start = out.len();
                        out.push_str("planp;");
                        out.push_str(&s.node);
                        out.push(';');
                        out.push_str(&s.shape.chan);
                        out.push('#');
                        push_u64(&mut out, u64::from(s.shape.overload));
                        out.push(';');
                        frames = Some(start..out.len());
                    }
                }
                out.push_str(r.label());
                out.push(' ');
                push_u64(&mut out, r.observed);
                out.push('\n');
            }
        });
        out
    }

    /// The utilization heatmap: one row per `scope × observed-or-bound
    /// site`, in (scope key, site) order.
    pub fn heatmap(&self) -> Vec<HeatmapRow> {
        let mut rows = Vec::new();
        self.each_scope(|s, totals| {
            let scope = s.key();
            // Every statically known site appears, observed or not;
            // observed-but-unknown sites appear with bound 0.
            for r in totals.rows(&s.shape) {
                let (observed, bound) = (r.observed, r.bound());
                let denom = bound.saturating_mul(s.dispatches);
                let permille = observed
                    .saturating_mul(1000)
                    .checked_div(denom)
                    .unwrap_or(0);
                rows.push(HeatmapRow {
                    scope: scope.clone(),
                    site: r.site,
                    label: r.label().to_string(),
                    observed,
                    bound,
                    dispatches: s.dispatches,
                    permille,
                    hot: denom > 0 && permille >= 800,
                    slack: s.dispatches > 0 && denom > 0 && permille <= 100,
                });
            }
        });
        rows
    }

    /// The heatmap as a human table (fixed-width, byte-stable).
    pub fn render_heatmap(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>8} {:>10} {:>10} {:>6}  label",
            "scope", "site", "observed", "bound/d", "util"
        );
        for r in self.heatmap() {
            let flags = match (r.hot, r.slack) {
                (true, _) => " HOT",
                (_, true) => " SLACK",
                _ => "",
            };
            let _ = writeln!(
                out,
                "{:<44} {:>8} {:>10} {:>10} {:>4}.{}%  {}{flags}",
                r.scope,
                r.site,
                r.observed,
                r.bound,
                r.permille / 10,
                r.permille % 10,
                r.label
            );
        }
        out
    }

    /// The superinstruction candidates of every scope, ranked by
    /// observed steps over their participating sites (descending; ties
    /// by scope key, then anchor label). The input artifact for the
    /// bytecode/superinstruction tier.
    pub fn superinstruction_report(&self) -> String {
        let mut ranked: Vec<(u64, String, &str, &str)> = Vec::new();
        self.each_scope(|s, totals| {
            for p in &s.shape.patterns {
                let observed = totals.observed(&s.shape, &p.sites);
                ranked.push((observed, s.key(), &p.label, &p.pattern));
            }
        });
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(b.2)));
        let mut out = String::new();
        for (i, (observed, scope, label, pattern)) in ranked.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>3}. {pattern:<20} {scope} @{label} steps={observed}",
                i + 1
            );
        }
        out
    }

    /// The whole registry as one byte-stable JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"sample_n\":");
        push_u64(&mut out, u64::from(self.sample_n));
        out.push_str(",\"mismatches\":");
        push_u64(&mut out, self.mismatches());
        out.push_str(",\"scopes\":[");
        let mut scopes = Seq::new();
        self.each_scope(|s, totals| {
            scopes.sep(&mut out);
            out.push_str("{\"scope\":\"");
            let (chan, overload) = (&s.shape.chan, s.shape.overload);
            push_scope_key(&mut out, &s.node, chan, overload, push_escaped);
            for (key, v) in [
                ("\",\"dispatches\":", s.dispatches),
                (",\"skipped\":", s.skipped),
                (",\"steps\":", s.steps),
                (",\"mismatches\":", s.mismatches),
            ] {
                out.push_str(key);
                push_u64(&mut out, v);
            }
            out.push_str(",\"sites\":[");
            let mut sites = Seq::new();
            for r in totals.rows(&s.shape) {
                sites.sep(&mut out);
                match r.meta {
                    Some(m) => {
                        let (head, tail) = m.json_row(r.site);
                        out.push_str(head);
                        push_u64(&mut out, r.observed);
                        out.push_str(tail);
                    }
                    None => {
                        push_row_head(&mut out, r.site);
                        push_u64(&mut out, r.observed);
                        push_row_tail(&mut out, 0, r.label());
                    }
                }
            }
            out.push_str("],\"patterns\":[");
            let mut patterns = Seq::new();
            for p in &s.shape.patterns {
                patterns.sep(&mut out);
                out.push_str("{\"pattern\":");
                push_str(&mut out, &p.pattern);
                out.push_str(",\"label\":");
                push_str(&mut out, &p.label);
                out.push_str(",\"sites\":[");
                let mut sites = Seq::new();
                for &site in &p.sites {
                    sites.sep(&mut out);
                    push_u64(&mut out, u64::from(site));
                }
                out.push_str("],\"observed\":");
                push_u64(&mut out, totals.observed(&s.shape, &p.sites));
                out.push('}');
            }
            out.push_str("]}");
        });
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One profiled dispatch from its per-site charge vector.
    fn record(reg: &mut ProfileRegistry, id: ScopeId, site_steps: &[(u32, u64)], steps: u64) {
        for &(site, n) in site_steps {
            reg.charge_site(id, site, n);
        }
        reg.record(id, steps);
    }

    /// The shape of `gw`'s scope over the site pool `pool`.
    fn gw_shape(pool: &[u32]) -> Rc<ScopeShape> {
        Rc::new(ScopeShape::new(
            "network",
            0,
            [
                (10, "1:1:if".to_string(), 2),
                (20, "2:3:prim.tcpDst".to_string(), 1),
            ],
            [(
                "hdr_compare_branch".to_string(),
                vec![10, 20],
                "1:1".to_string(),
            )],
            pool,
        ))
    }

    fn declared(reg: &mut ProfileRegistry) -> ScopeId {
        reg.declare("gw", &gw_shape(&[]))
    }

    #[test]
    fn declare_is_idempotent_and_keeps_observations() {
        let mut reg = ProfileRegistry::default();
        let a = declared(&mut reg);
        assert!(reg.should_profile(a));
        record(&mut reg, a, &[(10, 2), (20, 1)], 3);
        let b = declared(&mut reg);
        assert_eq!(a, b);
        assert_eq!(reg.scope(b).dispatches, 1);
        assert_eq!(reg.scope(b).steps, 3);
        assert_eq!(reg.mismatches(), 0);
    }

    #[test]
    fn block_charges_count_like_site_charges() {
        // The pool of a compiled program: positions 0..5, one site (30)
        // this scope never declared, site 10 at two positions.
        let pool = [10, 20, 30, 10, 20];
        let per_site = |bound: bool| {
            let mut reg = ProfileRegistry::default();
            let id = reg.declare("gw", &gw_shape(if bound { &pool } else { &[] }));
            assert!(reg.should_profile(id));
            reg.charge_blocks(id, &pool, &[(0, 2), (2, 3)], 1);
            reg.record(id, 5);
            // A prefix of a block (an instruction raised in its middle).
            assert!(reg.should_profile(id));
            reg.charge_blocks(id, &pool, &[(2, 2)], 1);
            reg.record(id, 2);
            reg
        };
        let (bound, unbound) = (per_site(true), per_site(false));
        let want: BTreeMap<u32, u64> = [(10, 3), (20, 2), (30, 2)].into();
        for reg in [&bound, &unbound] {
            let s = reg.scopes().next().unwrap();
            assert_eq!(s.sites(), want);
            assert_eq!(s.unknown_sites(), 1, "site 30 has no static bound");
            assert_eq!((s.dispatches, s.steps), (2, 7));
            assert_eq!(reg.mismatches(), 0);
        }
        assert_eq!(bound.to_json(), unbound.to_json());
        assert_eq!(bound.collapsed_flame(), unbound.collapsed_flame());
    }

    #[test]
    fn redeclaring_over_another_pool_keeps_what_the_old_blocks_charged() {
        let mut reg = ProfileRegistry::default();
        let id = reg.declare("gw", &gw_shape(&[10, 20, 30]));
        assert!(reg.should_profile(id));
        reg.charge_blocks(id, &[10, 20, 30], &[(0, 3), (1, 1)], 1);
        reg.record(id, 4);
        // Same sites at other positions: a charge still pending in the
        // old positions must not be read through the new table.
        let pool = [30, 20, 20, 10];
        assert_eq!(reg.declare("gw", &gw_shape(&pool)), id);
        assert!(reg.should_profile(id));
        reg.charge_blocks(id, &pool, &[(1, 3)], 2);
        reg.record(id, 6);
        let s = reg.scope(id);
        assert_eq!(s.sites(), [(10, 3), (20, 6), (30, 1)].into());
        assert_eq!((s.unknown_sites(), reg.mismatches()), (1, 0));
    }

    #[test]
    fn redeclaring_with_other_sites_keeps_observations() {
        let mut reg = ProfileRegistry::default();
        let id = reg.declare("gw", &gw_shape(&[10, 20]));
        assert!(reg.should_profile(id));
        record(&mut reg, id, &[(10, 2), (20, 1)], 3);
        // A redeploy of a different program: site 20 is gone, 40 is new,
        // and the old pool no longer applies.
        let other = ScopeShape::new(
            "network",
            0,
            [
                (10, "1:1:if".to_string(), 2),
                (40, "4:1:seq".to_string(), 1),
            ],
            [],
            &[],
        );
        let again = reg.declare("gw", &Rc::new(other));
        assert_eq!(again, id);
        assert!(reg.should_profile(id));
        reg.charge_blocks(id, &[40, 10], &[(0, 2)], 1);
        reg.record(id, 2);
        let s = reg.scope(id);
        assert_eq!(s.sites(), [(10, 3), (20, 1), (40, 1)].into());
        assert_eq!(s.unknown_sites(), 1, "site 20 is now undeclared");
        assert_eq!(reg.mismatches(), 0);
    }

    #[test]
    fn record_detects_aggregate_mismatch() {
        let mut reg = ProfileRegistry::default();
        let id = declared(&mut reg);
        record(&mut reg, id, &[(10, 2)], 3);
        assert_eq!(reg.mismatches(), 1);
    }

    #[test]
    fn sampling_keeps_first_then_every_nth() {
        let mut reg = ProfileRegistry::default();
        let id = declared(&mut reg);
        reg.set_sample(4);
        let mut kept = 0;
        for _ in 0..8 {
            if reg.should_profile(id) {
                record(&mut reg, id, &[(10, 1)], 1);
                kept += 1;
            }
        }
        assert_eq!(kept, 2, "1/4 sampling keeps dispatches 0 and 4");
        assert_eq!(reg.scope(id).skipped, 6);
    }

    #[test]
    fn exports_are_byte_stable_and_ranked() {
        let build = || {
            let mut reg = ProfileRegistry::default();
            let id = declared(&mut reg);
            let mon = ScopeShape::new(
                "mon",
                0,
                [(30, "3:1:seq".to_string(), 5)],
                [("table_forward".to_string(), vec![30], "3:1".to_string())],
                &[],
            );
            let other = reg.declare("gw", &Rc::new(mon));
            for _ in 0..3 {
                assert!(reg.should_profile(id));
                record(&mut reg, id, &[(10, 2), (20, 1)], 3);
            }
            assert!(reg.should_profile(other));
            record(&mut reg, other, &[(30, 1)], 1);
            reg
        };
        let a = build();
        let b = build();
        assert_eq!(a.collapsed_flame(), b.collapsed_flame());
        assert_eq!(a.render_heatmap(), b.render_heatmap());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.collapsed_flame().contains("planp;gw;network#0;1:1:if 6"));
        let report = a.superinstruction_report();
        let first = report.lines().next().unwrap();
        assert!(
            first.contains("hdr_compare_branch") && first.contains("steps=9"),
            "hottest candidate ranks first: {report}"
        );
        assert_eq!(a.mismatches(), 0);
    }

    #[test]
    fn heatmap_flags_hot_and_slack() {
        let mut reg = ProfileRegistry::default();
        let shape = ScopeShape::new(
            "c",
            0,
            [(1, "1:1:if".to_string(), 1), (2, "1:4:int".to_string(), 50)],
            [],
            &[],
        );
        let id = reg.declare("n0", &Rc::new(shape));
        assert!(reg.should_profile(id));
        // Site 1 fully used (1000‰, hot); site 2 uses 1 of 50 (20‰, slack).
        record(&mut reg, id, &[(1, 1), (2, 1)], 2);
        let rows = reg.heatmap();
        let r1 = rows.iter().find(|r| r.site == 1).unwrap();
        let r2 = rows.iter().find(|r| r.site == 2).unwrap();
        assert!(r1.hot && !r1.slack && r1.permille == 1000);
        assert!(r2.slack && !r2.hot && r2.permille == 20);
        assert!(rows.iter().all(|r| r.permille <= 1000), "soundness");
    }
}
