//! The frame a channel runs in, with the packet in its registers.

use super::CompiledProgram;
use crate::env::NetEnv;
use crate::value::{Value, VmError};
use bytes::Bytes;

/// A channel's frame with a packet in its registers, ready to run; see
/// [`CompiledProgram::frame`] and [`PacketFrame::load`]. Holds the
/// program's register file and hands it back when dropped, run or not.
pub struct PacketFrame<'p> {
    pub(super) prog: &'p CompiledProgram,
    /// The channel loaded last (`usize::MAX` before the first load).
    pub(super) idx: usize,
    pub(super) regs: Vec<Value>,
}

impl PacketFrame<'_> {
    /// Opens channel `idx` in this frame and lets `fill` write the
    /// packet straight into its registers — one slot per component of
    /// the channel's [`planp_lang::types::PacketShape`], in tuple order.
    /// `false` when `fill` declines (the packet does not match).
    #[inline]
    pub fn load(&mut self, idx: usize, fill: impl FnOnce(&mut [Value]) -> bool) -> bool {
        let ch = &self.prog.channels[idx];
        if self.regs.len() < ch.body.depth as usize {
            self.regs.resize(ch.body.depth as usize, Value::Unit);
        }
        self.idx = idx;
        let (at, len) = (ch.pkt.0 as usize, ch.pkt.1 as usize);
        fill(&mut self.regs[at..at + len])
    }

    /// The loaded packet's components, in tuple order.
    pub fn packet(&self) -> &[Value] {
        let (at, len) = self.prog.channels[self.idx].pkt;
        &self.regs[at as usize..(at + len) as usize]
    }

    /// Runs the channel on the loaded packet with the protocol and
    /// channel states in place: they move into the frame's first two
    /// registers for the run and back out of them after it. On success
    /// `ps` and `ss` hold the new states; on an error they hold what
    /// they held before (nothing writes those registers but a return).
    /// The packet's registers keep what the run left there (a send that
    /// moved them leaves them empty) until the frame is dropped.
    ///
    /// # Errors
    ///
    /// Propagates uncaught PLAN-P exceptions and traps.
    pub fn run(
        &mut self,
        globals: &[Value],
        ps: &mut Value,
        ss: &mut Value,
        net: &mut dyn NetEnv,
    ) -> Result<(), VmError> {
        let unit = &self.prog.channels[self.idx].body;
        std::mem::swap(&mut self.regs[0], ps);
        std::mem::swap(&mut self.regs[1], ss);
        let (out, steps) = self.prog.exec(unit, globals, &mut self.regs, net);
        net.charge_steps(steps);
        std::mem::swap(&mut self.regs[0], ps);
        std::mem::swap(&mut self.regs[1], ss);
        out
    }
}

impl Drop for PacketFrame<'_> {
    /// Lets go of whatever the packet's registers share with the heap
    /// and hands the register file back: between dispatches it holds no
    /// packet's payload. A blob register keeps an empty blob and a
    /// header register its header, so the next packet of the same shape
    /// is written over them in place.
    #[inline]
    fn drop(&mut self) {
        let (at, len) = self.prog.channels.get(self.idx).map_or((0, 0), |ch| ch.pkt);
        for reg in &mut self.regs[at as usize..(at + len) as usize] {
            match reg {
                Value::Blob(bytes) => *bytes = Bytes::new(),
                Value::Int(_)
                | Value::Bool(_)
                | Value::Char(_)
                | Value::Unit
                | Value::Host(_)
                | Value::Ip(_)
                | Value::Tcp(_)
                | Value::Udp(_) => {}
                Value::Str(_) | Value::Tuple(_) | Value::List(_) | Value::Table(_) => {
                    *reg = Value::Unit;
                }
            }
        }
        self.prog.regs.replace(std::mem::take(&mut self.regs));
    }
}
