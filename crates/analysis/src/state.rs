//! Worst-case protocol-state effects: the sixth static analysis.
//!
//! The paper's download-time checks bound *CPU* (termination, cost) but
//! say nothing about *router memory*, yet every `tblSet` with a key
//! derived from packet contents grows a table by one entry per new
//! flow. This module runs an abstract interpretation over the typed AST
//! computing, per channel overload, a **state effect**:
//!
//! * which tables are written (tables are identified by where they live
//!   in the protocol/channel state, resolved through projections and
//!   `let` aliases);
//! * whether each write's key domain is *finite* (constants, globals,
//!   `thisHost()`, and tuples thereof) or *packet-derived* (anything
//!   that can differ across dispatches: packet fields, clock, RNG,
//!   table reads);
//! * the worst-case number of inserts and evictions per dispatch
//!   (composed like the [cost bounds](crate::cost), by the same
//!   recurrence: a `tblSet` is one insert, a `tblDel`/`tblClear` one
//!   evict).
//!
//! Per table, the entry bound is three-tiered ([`EntryBound`]):
//!
//! * all write keys finite → **proved**: the table can never hold more
//!   entries than the summed key-domain widths, statically;
//! * packet-derived keys but the program evicts (`tblDel`/`tblClear`
//!   reaches the table on some path) and the table declares a capacity
//!   (`mkTable(n)`) → **declared**: `n` is a contract the analysis
//!   cannot prove, so the runtime monitors it live
//!   (`state_bound_exceeded` telemetry);
//! * packet-derived keys with no eviction anywhere → **unbounded**,
//!   the `E009` material.
//!
//! The verifier folds this into download verdicts (`E009`, `E010` under
//! [`crate::Policy::with_state_budget`]) and the plan layer composes
//! per-ASP entry bounds against a plan-level `budget state` line. The
//! lints `S001`–`S004` ([`state_lints`]) ride on the same facts.

use crate::diag::Diagnostic;
use crate::paths::{program_bounds, Bound};
use crate::summary::ProgramSummary;
use planp_lang::ast::Name;
use planp_lang::prims::{self, PrimClass};
use planp_lang::span::Span;
use planp_lang::tast::{ExnId, TExpr, TExprKind, TProgram};
use planp_lang::types::Type;
use std::collections::BTreeMap;

/// Capacity a default-initialized table gets (mirrors the VM's
/// `Value::default_of` for `hash_table` types).
pub const DEFAULT_TABLE_CAPACITY: u64 = 16;

/// Saturation cap for finite key-domain widths; anything wider is
/// reported as the cap rather than overflowing.
const WIDTH_CAP: u64 = 1 << 16;

/// Where a table lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StateRoot {
    /// The shared protocol state (slot 0 of every channel).
    Proto,
    /// The per-overload channel state of channel index `usize` (slot 1).
    Chan(usize),
    /// A table the analysis could not identify: reached through a
    /// function parameter, or allocated mid-dispatch by `mkTable`.
    Unknown,
}

/// One table the program touches, with its statically derived facts.
#[derive(Debug, Clone, PartialEq)]
pub struct TableState {
    /// Which state slot the table lives in.
    pub root: StateRoot,
    /// Projection path from the root (`#4 ps` is `[3]`).
    pub path: Vec<u32>,
    /// Human-readable name, e.g. `ps`, `#4 ps`, `network#0:ss`.
    pub display: String,
    /// Declared capacity: the `mkTable(n)` hint of the initializer, or
    /// [`DEFAULT_TABLE_CAPACITY`] for default-initialized state. `None`
    /// when the initializer could not be resolved (or the root is
    /// unknown).
    pub capacity: Option<u64>,
    /// Number of `tblSet` sites targeting this table.
    pub writes: u32,
    /// Number of read sites (`tblGet`/`tblHas`/`tblSize`).
    pub reads: u32,
    /// Number of `tblGet` sites among the reads.
    pub gets: u32,
    /// True if any write keys the table on a packet-derived value.
    pub packet_keyed: bool,
    /// Summed key-domain widths of the finite write sites.
    pub finite_width: u64,
    /// True if any `tblDel`/`tblClear` reaches this table.
    pub eviction: bool,
    /// Span of the first write site (for `S001`).
    pub first_write: Option<Span>,
    /// Span of the first packet-keyed write site (the `E009` witness).
    pub first_packet_write: Option<Span>,
    /// Span of the first `tblGet` site (for `S002`).
    pub first_get: Option<Span>,
    /// The derived entry bound.
    pub bound: EntryBound,
}

/// How many entries a table can accumulate over a node's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryBound {
    /// Statically proved: every write key draws from a finite domain of
    /// at most this many values.
    Proved(u64),
    /// Declared, not proved: keys are packet-derived but the program
    /// evicts, so the `mkTable` capacity is taken as a contract the
    /// runtime cross-checks live.
    Declared(u64),
    /// Packet-derived keys with no eviction on any path.
    Unbounded,
}

impl EntryBound {
    /// The numeric bound, `None` when unbounded.
    pub fn entries(&self) -> Option<u64> {
        match self {
            EntryBound::Proved(n) | EntryBound::Declared(n) => Some(*n),
            EntryBound::Unbounded => None,
        }
    }

    /// True unless the bound is [`EntryBound::Unbounded`].
    pub fn is_finite(&self) -> bool {
        !matches!(self, EntryBound::Unbounded)
    }
}

/// Worst-case per-dispatch state operations, composed like the cost
/// bounds: sequence = saturating sum, branch = per-field max.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateCounts {
    /// `tblSet` calls (upper bound per dispatch).
    pub inserts: u64,
    /// `tblDel`/`tblClear` calls (upper bound per dispatch).
    pub evicts: u64,
}

impl Bound for StateCounts {
    fn then(self, o: StateCounts) -> StateCounts {
        StateCounts {
            inserts: self.inserts.saturating_add(o.inserts),
            evicts: self.evicts.saturating_add(o.evicts),
        }
    }

    fn or(self, o: StateCounts) -> StateCounts {
        StateCounts {
            inserts: self.inserts.max(o.inserts),
            evicts: self.evicts.max(o.evicts),
        }
    }
}

/// Per-channel state effect.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelState {
    /// Channel name.
    pub name: Name,
    /// Overload index within the name group.
    pub overload: u32,
    /// Worst-case inserts/evicts per dispatch.
    pub counts: StateCounts,
    /// Span of the first `tblSet` whose *value* is derived from mutable
    /// state — re-running the dispatch on a duplicated packet writes a
    /// different value (`S003` material).
    pub state_dep_write: Option<Span>,
    /// Span of the first `tblGet` whose `NotFound` escapes the channel
    /// (`S004` material: after a crash-recovery reinstall the table is
    /// empty, so the dispatch fails until state is rebuilt).
    pub unhandled_get: Option<Span>,
}

/// The program-wide state effect: the analysis result folded into
/// [`ProgramSummary`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateReport {
    /// Parallel to `TProgram::channels`.
    pub channels: Vec<ChannelState>,
    /// Every table the program touches, ordered by `(root, path)`.
    pub tables: Vec<TableState>,
}

impl StateReport {
    /// The summed entry bound over all tables — `None` if any table is
    /// unbounded.
    pub fn entry_bound(&self) -> Option<u64> {
        self.tables
            .iter()
            .try_fold(0u64, |acc, t| Some(acc.saturating_add(t.bound.entries()?)))
    }

    /// True when every table's bound is statically *proved* (no
    /// declared-only tier involved).
    pub fn all_proved(&self) -> bool {
        self.tables
            .iter()
            .all(|t| matches!(t.bound, EntryBound::Proved(_)))
    }

    /// Tables with no finite bound (the `E009` witnesses).
    pub fn unbounded_tables(&self) -> impl Iterator<Item = &TableState> {
        self.tables.iter().filter(|t| !t.bound.is_finite())
    }

    /// The worst per-dispatch insert bound over all channels.
    pub fn max_inserts(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.counts.inserts)
            .max()
            .unwrap_or(0)
    }

    /// The per-dispatch insert bound of channel `index` (`0` when out of
    /// range — stateless programs have no channels entry to exceed).
    pub fn inserts_for(&self, index: usize) -> u64 {
        self.channels
            .get(index)
            .map(|c| c.counts.inserts)
            .unwrap_or(0)
    }
}

/// Abstract values of the state interpretation.
#[derive(Debug, Clone, PartialEq)]
enum SVal {
    /// The packet parameter itself.
    Pkt,
    /// Can differ across dispatches: packet contents, clock, RNG,
    /// link-state queries.
    Varying,
    /// Derived from mutable table state (a `tblGet` result, a table
    /// size, …).
    StateRead,
    /// Draws from a domain of at most `n` distinct values over the
    /// node's lifetime (literals, globals, `thisHost()`).
    Finite(u64),
    /// A piece of mutable state, addressed root + projection path.
    State(StateRoot, Vec<u32>),
    /// A tuple of abstract components.
    Tup(Vec<SVal>),
    /// Unknown (function parameters).
    Opaque,
}

impl SVal {
    /// Key-domain width when finite; `None` for packet-derived keys.
    fn key_width(&self) -> Option<u64> {
        match self {
            SVal::Finite(n) => Some(*n),
            SVal::Tup(items) => items
                .iter()
                .try_fold(1u64, |acc, i| i.key_width().map(|w| acc.saturating_mul(w)))
                .map(|w| w.min(WIDTH_CAP)),
            _ => None,
        }
    }

    /// True if the value is (or contains) something read from mutable
    /// state.
    fn reads_state(&self) -> bool {
        match self {
            SVal::StateRead | SVal::State(..) => true,
            SVal::Tup(items) => items.iter().any(SVal::reads_state),
            _ => false,
        }
    }

    /// True if the value can differ across dispatches.
    fn varies(&self) -> bool {
        match self {
            SVal::Pkt | SVal::Varying | SVal::StateRead | SVal::Opaque | SVal::State(..) => true,
            SVal::Finite(_) => false,
            SVal::Tup(items) => items.iter().any(SVal::varies),
        }
    }

    /// Join for branch merges. Two finite domains always *sum* — even
    /// when the abstractions are equal, the underlying values can
    /// differ (two distinct constants both abstract to `Finite(1)`).
    fn join(self, o: SVal) -> SVal {
        match (self, o) {
            (SVal::Finite(a), SVal::Finite(b)) => SVal::Finite(a.saturating_add(b).min(WIDTH_CAP)),
            (a, b) if a == b => a,
            (SVal::Tup(a), SVal::Tup(b)) if a.len() == b.len() => {
                SVal::Tup(a.into_iter().zip(b).map(|(x, y)| x.join(y)).collect())
            }
            (a, b) => {
                if a.reads_state() || b.reads_state() {
                    SVal::StateRead
                } else if a.varies() || b.varies() {
                    SVal::Varying
                } else {
                    SVal::Opaque
                }
            }
        }
    }
}

/// Result of mixing argument abstractions through a pure operator.
fn mix(args: &[SVal]) -> SVal {
    if args.iter().any(SVal::reads_state) {
        return SVal::StateRead;
    }
    let mut width = 1u64;
    for a in args {
        match a.key_width() {
            Some(w) => width = width.saturating_mul(w).min(WIDTH_CAP),
            None => {
                return if args.iter().any(SVal::varies) {
                    SVal::Varying
                } else {
                    SVal::Opaque
                }
            }
        }
    }
    SVal::Finite(width)
}

type TableId = (StateRoot, Vec<u32>);

#[derive(Debug, Default)]
struct TableAcc {
    writes: u32,
    reads: u32,
    gets: u32,
    packet_keyed: bool,
    finite_width: u64,
    eviction: bool,
    first_write: Option<Span>,
    first_packet_write: Option<Span>,
    first_get: Option<Span>,
}

/// Per-function precomputed facts.
#[derive(Debug, Clone, Copy, Default)]
struct FunInfo {
    state_dep_write: bool,
    unhandled_get: bool,
}

/// Accumulator for the body currently being walked (a channel or a
/// function).
#[derive(Debug, Default)]
struct BodyAcc {
    state_dep_write: Option<Span>,
    unhandled_gets: Vec<(Option<TableId>, Span)>,
}

struct Cx {
    notfound: Option<ExnId>,
    fun_infos: Vec<FunInfo>,
    tables: BTreeMap<TableId, TableAcc>,
}

impl Cx {
    fn table(&mut self, id: TableId) -> &mut TableAcc {
        self.tables.entry(id).or_default()
    }

    /// Walks `e`, returning its abstract value. `handled` counts
    /// enclosing handlers that catch `NotFound`.
    fn walk(&mut self, e: &TExpr, env: &mut [SVal], acc: &mut BodyAcc, handled: u32) -> SVal {
        use TExprKind::*;
        match &e.kind {
            Int(_) | Bool(_) | Str(_) | Char(_) | Unit | Host(_) | Global { .. } => SVal::Finite(1),
            Local { slot, .. } => env[*slot as usize].clone(),
            Tuple(items) => SVal::Tup(
                items
                    .iter()
                    .map(|it| self.walk(it, env, acc, handled))
                    .collect(),
            ),
            List(items) => {
                for it in items {
                    self.walk(it, env, acc, handled);
                }
                SVal::Opaque
            }
            Seq(items) => items
                .iter()
                .fold(SVal::Finite(1), |_, it| self.walk(it, env, acc, handled)),
            Proj(i, inner) => match self.walk(inner, env, acc, handled) {
                SVal::Pkt => SVal::Varying,
                SVal::State(root, mut path) => {
                    path.push(*i);
                    SVal::State(root, path)
                }
                SVal::Tup(items) => items.get(*i as usize).cloned().unwrap_or(SVal::Opaque),
                other => other,
            },
            Let {
                slot, init, body, ..
            } => {
                // Slots are a stack (see `summary::Cx::walk`): no restore.
                env[*slot as usize] = self.walk(init, env, acc, handled);
                self.walk(body, env, acc, handled)
            }
            If(c, t, f) => {
                self.walk(c, env, acc, handled);
                let tv = self.walk(t, env, acc, handled);
                tv.join(self.walk(f, env, acc, handled))
            }
            Binop(_, a, b) => {
                let av = self.walk(a, env, acc, handled);
                mix(&[av, self.walk(b, env, acc, handled)])
            }
            Unop(_, a) => mix(&[self.walk(a, env, acc, handled)]),
            Raise(_) => SVal::Opaque,
            Handle(body, exn, handler) => {
                // A wildcard or NotFound handler shields `tblGet`s in the
                // body.
                let shields = exn.is_none() || *exn == self.notfound;
                let bv = self.walk(body, env, acc, handled + shields as u32);
                bv.join(self.walk(handler, env, acc, handled))
            }
            OnRemote { .. } | OnNeighbor { .. } => {
                for c in e.children() {
                    self.walk(c, env, acc, handled);
                }
                SVal::Finite(1)
            }
            CallFun { index, args, .. } => {
                for a in args {
                    self.walk(a, env, acc, handled);
                }
                let info = self
                    .fun_infos
                    .get(*index as usize)
                    .copied()
                    .unwrap_or_default();
                if info.state_dep_write && acc.state_dep_write.is_none() {
                    acc.state_dep_write = Some(e.span);
                }
                if info.unhandled_get && handled == 0 {
                    acc.unhandled_gets.push((None, e.span));
                }
                SVal::Opaque
            }
            CallPrim { prim, args } => {
                let vals: Vec<SVal> = args
                    .iter()
                    .map(|a| self.walk(a, env, acc, handled))
                    .collect();
                let sig = prims::table().sig(*prim);
                match sig.name {
                    "tblSet" => {
                        let id = target_of(&vals[0]);
                        let width = vals[1].key_width();
                        let value_reads_state = vals[2].reads_state();
                        let t = self.table(id);
                        t.writes += 1;
                        if t.first_write.is_none() {
                            t.first_write = Some(e.span);
                        }
                        match width {
                            Some(w) => t.finite_width = t.finite_width.saturating_add(w),
                            None => {
                                t.packet_keyed = true;
                                if t.first_packet_write.is_none() {
                                    t.first_packet_write = Some(e.span);
                                }
                            }
                        }
                        if value_reads_state && acc.state_dep_write.is_none() {
                            acc.state_dep_write = Some(e.span);
                        }
                        SVal::Finite(1)
                    }
                    "tblDel" | "tblClear" => {
                        self.table(target_of(&vals[0])).eviction = true;
                        SVal::Finite(1)
                    }
                    "tblGet" => {
                        let id = target_of(&vals[0]);
                        let t = self.table(id.clone());
                        t.reads += 1;
                        t.gets += 1;
                        if t.first_get.is_none() {
                            t.first_get = Some(e.span);
                        }
                        if handled == 0 {
                            acc.unhandled_gets.push((Some(id), e.span));
                        }
                        SVal::StateRead
                    }
                    "tblHas" | "tblSize" => {
                        self.table(target_of(&vals[0])).reads += 1;
                        SVal::StateRead
                    }
                    "mkTable" => SVal::State(StateRoot::Unknown, Vec::new()),
                    "thisHost" => SVal::Finite(1),
                    _ => match sig.class {
                        PrimClass::Pure | PrimClass::Alloc => mix(&vals),
                        PrimClass::Env => SVal::Varying,
                        PrimClass::Io | PrimClass::StateWrite => SVal::Finite(1),
                    },
                }
            }
        }
    }
}

/// What one node adds to the per-dispatch counts: a `tblSet` is one
/// insert, a `tblDel`/`tblClear` one evict.
fn count_atom(e: &TExpr) -> StateCounts {
    let mut counts = StateCounts::default();
    if let TExprKind::CallPrim { prim, .. } = &e.kind {
        match prims::table().sig(*prim).name {
            "tblSet" => counts.inserts = 1,
            "tblDel" | "tblClear" => counts.evicts = 1,
            _ => {}
        }
    }
    counts
}

/// The table a `tbl*` primitive operates on.
fn target_of(v: &SVal) -> TableId {
    match v {
        SVal::State(root, path) => (*root, path.clone()),
        _ => (StateRoot::Unknown, Vec::new()),
    }
}

/// Table positions inside a state type, as projection paths.
fn type_table_paths(ty: &Type, path: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
    match ty {
        Type::Table(..) => out.push(path.clone()),
        Type::Tuple(items) => {
            for (i, t) in items.iter().enumerate() {
                path.push(i as u32);
                type_table_paths(t, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

/// Resolves the `mkTable` capacity hint reachable through `path` in an
/// initializer expression; `None` when the shape is too dynamic.
fn resolve_cap(e: &TExpr, path: &[u32]) -> Option<u64> {
    match &e.kind {
        TExprKind::CallPrim { prim, args } if path.is_empty() => {
            if prims::table().sig(*prim).name != "mkTable" {
                return None;
            }
            match args.first().map(|a| &a.kind) {
                Some(TExprKind::Int(n)) => Some((*n).max(0) as u64),
                _ => None,
            }
        }
        TExprKind::Tuple(items) => {
            let (&i, rest) = path.split_first()?;
            resolve_cap(items.get(i as usize)?, rest)
        }
        TExprKind::Let { body, .. } => resolve_cap(body, path),
        TExprKind::Seq(items) => resolve_cap(items.last()?, path),
        _ => None,
    }
}

/// Declared capacities for every table position of the program's state,
/// keyed by table identity.
fn capacities(prog: &TProgram) -> BTreeMap<TableId, Option<u64>> {
    let mut caps = BTreeMap::new();
    let fill = |root: StateRoot,
                ty: &Type,
                init: Option<&TExpr>,
                caps: &mut BTreeMap<TableId, Option<u64>>| {
        let mut paths = Vec::new();
        type_table_paths(ty, &mut Vec::new(), &mut paths);
        for p in paths {
            let cap = match init {
                Some(e) => resolve_cap(e, &p),
                None => Some(DEFAULT_TABLE_CAPACITY),
            };
            caps.insert((root, p), cap);
        }
    };
    fill(
        StateRoot::Proto,
        &prog.proto_ty,
        prog.proto_init.as_ref(),
        &mut caps,
    );
    for (i, ch) in prog.channels.iter().enumerate() {
        fill(
            StateRoot::Chan(i),
            &ch.ss_ty,
            ch.initstate.as_ref(),
            &mut caps,
        );
    }
    caps
}

/// Human-readable name for a table identity.
fn display_name(prog: &TProgram, root: StateRoot, path: &[u32]) -> String {
    let mut s = match root {
        StateRoot::Proto => prog
            .channels
            .first()
            .map_or_else(|| "ps".to_string(), |c| c.ps_name.to_string()),
        StateRoot::Chan(i) => {
            let ch = &prog.channels[i];
            format!("{}#{}:{}", ch.name, ch.overload, ch.ss_name)
        }
        StateRoot::Unknown => "?".to_string(),
    };
    for i in path {
        s = format!("#{} {}", i + 1, s);
    }
    s
}

/// Computes the program's state effect.
pub fn state_effects(prog: &TProgram) -> StateReport {
    let mut cx = Cx {
        notfound: prog.exn_id("NotFound"),
        fun_infos: Vec::with_capacity(prog.funs.len()),
        tables: BTreeMap::new(),
    };
    // Functions first, in declaration order (PLAN-P has no recursion);
    // parameters are opaque, what every slot starts as, so tables passed
    // into functions degrade to the unknown root.
    let mut env = Vec::new();
    for f in &prog.funs {
        env.clear();
        env.resize(f.nlocals as usize, SVal::Opaque);
        let mut acc = BodyAcc::default();
        cx.walk(&f.body, &mut env, &mut acc, 0);
        cx.fun_infos.push(FunInfo {
            state_dep_write: acc.state_dep_write.is_some(),
            unhandled_get: !acc.unhandled_gets.is_empty(),
        });
    }
    let (_, counts) = program_bounds(prog, count_atom);
    let mut channels = Vec::with_capacity(prog.channels.len());
    for (i, (ch, counts)) in prog.channels.iter().zip(counts).enumerate() {
        env.clear();
        env.extend([
            SVal::State(StateRoot::Proto, Vec::new()),
            SVal::State(StateRoot::Chan(i), Vec::new()),
            SVal::Pkt,
        ]);
        env.resize(ch.nlocals as usize, SVal::Opaque);
        let mut acc = BodyAcc::default();
        cx.walk(&ch.body, &mut env, &mut acc, 0);
        channels.push((
            ChannelState {
                name: ch.name.clone(),
                overload: ch.overload,
                counts,
                state_dep_write: acc.state_dep_write,
                unhandled_get: None,
            },
            acc.unhandled_gets,
        ));
    }
    let caps = capacities(prog);
    let written = |id: &Option<TableId>| match id {
        Some(id) => cx.tables.get(id).map(|t| t.writes > 0).unwrap_or(false),
        None => true,
    };
    let channels = channels
        .into_iter()
        .map(|(mut cs, gets)| {
            cs.unhandled_get = gets.iter().find(|(id, _)| written(id)).map(|(_, s)| *s);
            cs
        })
        .collect();
    let tables = cx
        .tables
        .into_iter()
        .map(|((root, path), acc)| {
            let capacity = caps.get(&(root, path.clone())).copied().flatten();
            let bound = if acc.writes == 0 {
                EntryBound::Proved(0)
            } else if !acc.packet_keyed {
                EntryBound::Proved(acc.finite_width.min(WIDTH_CAP))
            } else if acc.eviction {
                match capacity {
                    Some(c) => EntryBound::Declared(c),
                    None => EntryBound::Unbounded,
                }
            } else {
                EntryBound::Unbounded
            };
            TableState {
                display: display_name(prog, root, &path),
                root,
                path,
                capacity,
                writes: acc.writes,
                reads: acc.reads,
                gets: acc.gets,
                packet_keyed: acc.packet_keyed,
                finite_width: acc.finite_width,
                eviction: acc.eviction,
                first_write: acc.first_write,
                first_packet_write: acc.first_packet_write,
                first_get: acc.first_get,
                bound,
            }
        })
        .collect();
    StateReport { channels, tables }
}

/// The state lints:
///
/// | code | finding |
/// |------|---------|
/// | S001 | table written but never read |
/// | S002 | `tblGet` on a table that is never written (always raises `NotFound`) |
/// | S003 | non-idempotent state write in a channel reachable from a duplicating send |
/// | S004 | a state read whose `NotFound` escapes the channel (fails after crash recovery) |
///
/// Findings are sorted by source position then code, like
/// [`crate::lint()`].
pub fn state_lints(prog: &TProgram, sum: &ProgramSummary) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let st = &sum.state;
    for t in &st.tables {
        if t.writes > 0 && t.reads == 0 {
            if let Some(span) = t.first_write {
                out.push(
                    Diagnostic::warning(
                        "S001",
                        span,
                        format!("table `{}` is written but never read", t.display),
                    )
                    .note("every insert is dead weight; drop the writes or add a reader"),
                );
            }
        }
        if t.gets > 0 && t.writes == 0 {
            if let Some(span) = t.first_get {
                out.push(
                    Diagnostic::warning(
                        "S002",
                        span,
                        format!(
                            "`tblGet` on table `{}`, which is never written — it always \
                             raises NotFound",
                            t.display
                        ),
                    )
                    .note("tables start empty; without a tblSet this lookup cannot succeed"),
                );
            }
        }
    }
    // S003: a channel whose dispatches can arrive as duplicated copies
    // (it is the target of a send from a may-copy channel) must keep its
    // state writes idempotent — a value derived from mutable state is
    // re-derived differently on the copy.
    let dup = &sum.duplication;
    let mut exposed = vec![false; prog.channels.len()];
    for (i, es) in sum.channels.iter().enumerate() {
        if !dup.may_copy.get(i).copied().unwrap_or(false) {
            continue;
        }
        for site in &es.sites {
            if let Some(e) = exposed.get_mut(site.target) {
                *e = true;
            }
        }
    }
    for (i, cs) in st.channels.iter().enumerate() {
        if exposed[i] {
            if let Some(span) = cs.state_dep_write {
                out.push(
                    Diagnostic::warning(
                        "S003",
                        span,
                        format!(
                            "channel `{}` may receive duplicated packets but this state \
                             write depends on mutable state",
                            cs.name
                        ),
                    )
                    .note(
                        "a duplicate dispatch re-reads the table after the first copy \
                         mutated it, so the copies write different values; derive the \
                         value from the packet alone",
                    ),
                );
            }
        }
        if let Some(span) = cs.unhandled_get {
            out.push(
                Diagnostic::warning(
                    "S004",
                    span,
                    format!(
                        "state read in channel `{}` raises NotFound out of the channel",
                        cs.name
                    ),
                )
                .note(
                    "crash recovery reinstalls the program with empty tables; until the \
                     state is rebuilt every dispatch through this read fails — handle \
                     NotFound with a refetch or default path",
                ),
            );
        }
    }
    out.sort_by_key(|d| (d.span.start, d.span.end, d.code));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summarize;
    use planp_lang::compile_front;

    fn effects(src: &str) -> StateReport {
        let tp = compile_front(src).unwrap_or_else(|e| panic!("front: {e}\n{src}"));
        state_effects(&tp)
    }

    fn lints(src: &str) -> Vec<&'static str> {
        let tp = compile_front(src).unwrap_or_else(|e| panic!("front: {e}\n{src}"));
        let sum = summarize(&tp);
        state_lints(&tp, &sum).iter().map(|d| d.code).collect()
    }

    const STATELESS: &str = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                             (OnRemote(network, p); (ps + 1, ss))";

    #[test]
    fn stateless_program_has_no_tables() {
        let r = effects(STATELESS);
        assert!(r.tables.is_empty());
        assert_eq!(r.entry_bound(), Some(0));
        assert!(r.all_proved());
        assert_eq!(r.max_inserts(), 0);
    }

    const LEAK: &str = "channel network(ps : unit, ss : (host, int) hash_table, \
                        p : ip*udp*blob) is\n\
                        (tblSet(ss, ipSrc(#1 p), 1); OnRemote(network, p); (ps, ss))";

    #[test]
    fn packet_keyed_write_without_eviction_is_unbounded() {
        let r = effects(LEAK);
        assert_eq!(r.tables.len(), 1);
        let t = &r.tables[0];
        assert_eq!(t.root, StateRoot::Chan(0));
        assert!(t.packet_keyed);
        assert!(!t.eviction);
        assert_eq!(t.bound, EntryBound::Unbounded);
        assert!(t.first_packet_write.is_some());
        assert_eq!(r.entry_bound(), None);
        assert_eq!(r.max_inserts(), 1);
        assert_eq!(r.channels[0].counts.inserts, 1);
    }

    const EVICTING: &str = "channel network(ps : unit, ss : (host, int) hash_table, \
                            p : ip*udp*blob)\n\
                            initstate mkTable(32) is\n\
                            (tblSet(ss, ipSrc(#1 p), 1); tblDel(ss, ipSrc(#1 p));\n\
                             OnRemote(network, p); (ps, ss))";

    #[test]
    fn eviction_with_declared_capacity_is_declared_bound() {
        let r = effects(EVICTING);
        let t = &r.tables[0];
        assert!(t.packet_keyed);
        assert!(t.eviction);
        assert_eq!(t.capacity, Some(32));
        assert_eq!(t.bound, EntryBound::Declared(32));
        assert_eq!(r.entry_bound(), Some(32));
        assert!(!r.all_proved());
        assert_eq!(r.channels[0].counts.evicts, 1);
    }

    const FINITE: &str = "val a : host = 10.0.0.1\n\
                          channel network(ps : unit, ss : (host, int) hash_table, \
                          p : ip*udp*blob) is\n\
                          (tblSet(ss, a, 1); tblSet(ss, thisHost(), 2); \
                           OnRemote(network, p); (ps, ss))";

    #[test]
    fn finite_keys_prove_a_bound() {
        let r = effects(FINITE);
        let t = &r.tables[0];
        assert!(!t.packet_keyed);
        assert_eq!(t.bound, EntryBound::Proved(2));
        assert_eq!(r.entry_bound(), Some(2));
        assert!(r.all_proved());
        // Default-initialized state still reports the default capacity.
        assert_eq!(t.capacity, Some(DEFAULT_TABLE_CAPACITY));
    }

    #[test]
    fn branch_joins_sum_finite_widths_and_max_inserts() {
        let src = "val a : host = 10.0.0.1\n\
                   val b : host = 10.0.0.2\n\
                   channel network(ps : unit, ss : (host, int) hash_table, \
                   p : ip*udp*blob) is\n\
                   (tblSet(ss, if udpDst(#2 p) = 1 then a else b, 1); \
                    OnRemote(network, p); (ps, ss))";
        let r = effects(src);
        let t = &r.tables[0];
        assert!(!t.packet_keyed, "a two-way join of constants stays finite");
        assert_eq!(t.bound, EntryBound::Proved(2));
        assert_eq!(r.max_inserts(), 1);
    }

    #[test]
    fn proto_state_is_shared_across_overloads() {
        let src = "val a : host = 10.0.0.1\n\
                   channel network(ps : (host, int) hash_table, ss : unit, \
                   p : ip*udp*blob) is\n\
                   (tblSet(ps, a, 1); OnRemote(network, p); (ps, ss))\n\
                   channel network(ps : (host, int) hash_table, ss : unit, \
                   p : ip*tcp*blob) is\n\
                   (tblSet(ps, a, 2); OnRemote(network, p); (ps, ss))";
        let r = effects(src);
        assert_eq!(r.tables.len(), 1, "both overloads hit the same proto table");
        assert_eq!(r.tables[0].root, StateRoot::Proto);
        assert_eq!(r.tables[0].writes, 2);
        assert_eq!(r.tables[0].bound, EntryBound::Proved(2));
    }

    #[test]
    fn let_alias_and_projection_resolve_the_table() {
        let src = "channel network(ps : int * ((host, int) hash_table), ss : unit, \
                   p : ip*udp*blob)\n\
                   is\n\
                   let val buf : (host, int) hash_table = #2 ps in\n\
                     (tblSet(buf, ipSrc(#1 p), 1); OnRemote(network, p); (ps, ss))\n\
                   end";
        let r = effects(src);
        assert_eq!(r.tables.len(), 1);
        let t = &r.tables[0];
        assert_eq!(t.root, StateRoot::Proto);
        assert_eq!(t.path, vec![1]);
        assert_eq!(t.display, "#2 ps");
        assert_eq!(t.capacity, Some(DEFAULT_TABLE_CAPACITY));
    }

    #[test]
    fn lint_s001_written_never_read() {
        assert_eq!(lints(LEAK), vec!["S001"]);
    }

    #[test]
    fn lint_s002_read_only_table() {
        let src = "channel network(ps : unit, ss : (host, int) hash_table, \
                   p : ip*udp*blob) is\n\
                   ((tblGet(ss, ipSrc(#1 p)) handle NotFound => 0); \
                    OnRemote(network, p); (ps, ss))";
        assert_eq!(lints(src), vec!["S002"]);
    }

    #[test]
    fn lint_s004_unhandled_state_read() {
        let src = "channel network(ps : unit, ss : (host, int) hash_table, \
                   p : ip*udp*blob) is\n\
                   (tblSet(ss, ipSrc(#1 p), tblGet(ss, ipSrc(#1 p)) + 1); \
                    OnRemote(network, p); (ps, ss))";
        let codes = lints(src);
        assert!(codes.contains(&"S004"), "{codes:?}");
        // A wildcard handler shields it.
        let handled = "channel network(ps : unit, ss : (host, int) hash_table, \
                       p : ip*udp*blob) is\n\
                       ((tblSet(ss, ipSrc(#1 p), tblGet(ss, ipSrc(#1 p)) + 1); \
                         OnRemote(network, p); (ps, ss))\n\
                        handle _ => (OnRemote(network, p); (ps, ss)))";
        assert!(!lints(handled).contains(&"S004"), "{:?}", lints(handled));
    }

    #[test]
    fn lint_s003_duplicated_non_idempotent_write() {
        // `network` multicasts toward `sink` (a may-copy send); `sink`
        // writes a value derived from its own table.
        let src = "channel sink(ps : unit, ss : (host, int) hash_table, \
                   p : ip*udp*blob) is\n\
                   ((tblSet(ss, ipSrc(#1 p), tblGet(ss, ipSrc(#1 p)) + 1) \
                     handle NotFound => tblSet(ss, ipSrc(#1 p), 1)); \
                    OnRemote(sink, p); (ps, ss))\n\
                   channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(sink, (ipDestSet(#1 p, 224.0.0.1), #2 p, #3 p)); (ps, ss))";
        let codes = lints(src);
        assert!(codes.contains(&"S003"), "{codes:?}");
    }

    #[test]
    fn counts_compose_like_cost_bounds() {
        let src = "val a : host = 10.0.0.1\n\
                   channel network(ps : unit, ss : (host, int) hash_table, \
                   p : ip*udp*blob) is\n\
                   (if udpDst(#2 p) = 1 then (tblSet(ss, a, 1); tblSet(ss, a, 2); ())\n\
                    else tblSet(ss, a, 3);\n\
                    OnRemote(network, p); (ps, ss))";
        let r = effects(src);
        assert_eq!(r.channels[0].counts.inserts, 2, "branch max, sequence sum");
    }
}
