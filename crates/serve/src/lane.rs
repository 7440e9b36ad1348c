//! One device's serving state, shared by both serving loops.
//!
//! [`Server`](crate::Server) holds one [`DeviceLane`];
//! [`ClusterServer`](crate::ClusterServer) embeds one per shard. The lane
//! owns everything a dispatch touches on its device — the staged column,
//! the built index, the shared
//! [`StreamingWindowJoin`](windex_core::streams::StreamingWindowJoin), and
//! the result sink with its placement — and the operations both loops
//! need on it:
//!
//! - [`DeviceLane::new`] builds the lane, falling back to a CPU sink when
//!   the GPU sink does not fit;
//! - [`DeviceLane::attempt`] drives one batch through the operator and
//!   prices it;
//! - [`DeviceLane::degrade`] steps one rung down the capacity ladder
//!   (halve the window to
//!   [`MIN_WINDOW_TUPLES`](windex_core::session::MIN_WINDOW_TUPLES), then
//!   spill the sink);
//! - [`DeviceLane::recover`] rebuilds index, operator, and sink in place
//!   after a device loss.
//!
//! The loops themselves stay separate: `Server` blocks its clock for each
//! dispatch, while the cluster keeps admitting and staging while a shard
//! is busy. Each keeps its own clock updates; the lane never moves a
//! clock, it only reports virtual times for the caller to charge.

use crate::server::ServeConfig;
use std::rc::Rc;
use windex_core::session::MIN_WINDOW_TUPLES;
use windex_core::strategy::{BuiltIndex, IndexConfigs};
use windex_core::streams::StreamingWindowJoin;
use windex_core::window::WindowConfig;
use windex_core::{WindexError, WindowStats};
use windex_index::IndexKind;
use windex_join::{PartitionBits, ResultSink};
use windex_sim::{Buffer, CostModel, Counters, Gpu, MemLocation, PhaseRecorder};

/// One device's index, shared operator, and result sink.
#[derive(Debug)]
pub(crate) struct DeviceLane {
    index_kind: IndexKind,
    /// The staged host-resident column — the checkpoint the index is
    /// rebuilt from after a device loss.
    col: Rc<Buffer<u64>>,
    index: BuiltIndex,
    bits: PartitionBits,
    min_key: u64,
    /// Current shared-window capacity (≤ configured after degradation;
    /// degradation persists across traces, like a real server's state).
    window_tuples: usize,
    op: StreamingWindowJoin,
    sink: ResultSink,
    sink_loc: MemLocation,
    cost: CostModel,
}

/// One priced pass of a batch through the operator.
pub(crate) struct Attempt {
    /// The operator's verdict.
    pub result: Result<(), WindexError>,
    /// Counter delta of the attempt, failed or not.
    pub delta: Counters,
    /// Cost-model estimate of `delta`, in virtual seconds.
    pub est_s: f64,
}

/// A capacity-ladder rung taken by [`DeviceLane::degrade`].
pub(crate) enum Rung {
    /// The shared window was halved.
    WindowShrunk { from: usize, to: usize },
    /// The sink moved from GPU to CPU memory.
    SinkSpilled,
}

/// Timing of an in-place device-loss recovery.
pub(crate) struct Recovery {
    /// Virtual instant the loss window cleared (never before the loss).
    pub cleared_at_s: f64,
    /// Cost-model estimate of rebuilding index, operator, and sink.
    pub rebuild_s: f64,
}

impl Recovery {
    /// Time to recovery for a loss detected at `lost_at_s`: outage wait
    /// plus rebuild.
    pub fn mttr_s(&self, lost_at_s: f64) -> f64 {
        (self.cleared_at_s - lost_at_s) + self.rebuild_s
    }
}

impl DeviceLane {
    /// Build the index over `col`, the shared operator, and the sink. A
    /// GPU sink that cannot fit in device memory falls back to CPU
    /// placement; the returned flag reports that spill.
    pub fn new(
        gpu: &mut Gpu,
        cfg: &ServeConfig,
        col: Rc<Buffer<u64>>,
        bits: PartitionBits,
        min_key: u64,
    ) -> Result<(Self, bool), WindexError> {
        let index = BuiltIndex::build(gpu, cfg.index, &col, &IndexConfigs::default());
        let op = operator(gpu, cfg.window_tuples, bits, min_key)?;
        let mut sink_loc = cfg.result_location;
        let sink = match ResultSink::with_capacity(gpu, cfg.window_tuples, sink_loc) {
            Ok(s) => s,
            Err(e) if WindexError::from(e.clone()).is_capacity() => {
                sink_loc = MemLocation::Cpu;
                ResultSink::with_capacity(gpu, cfg.window_tuples, sink_loc)?
            }
            Err(e) => return Err(e.into()),
        };
        let spilled = sink_loc != cfg.result_location;
        let lane = DeviceLane {
            index_kind: cfg.index,
            col,
            index,
            bits,
            min_key,
            window_tuples: cfg.window_tuples,
            op,
            sink,
            sink_loc,
            cost: CostModel::new(gpu.spec()),
        };
        Ok((lane, spilled))
    }

    /// Current shared-window capacity (shrinks under memory pressure).
    pub fn window_tuples(&self) -> usize {
        self.window_tuples
    }

    /// Start a trace from an empty window and sink.
    pub fn begin_run(&mut self) {
        self.op.reset();
        self.sink.clear();
    }

    /// Install the per-trace phase recorder on the operator.
    pub fn set_phase_recorder(&mut self, rec: Option<PhaseRecorder>) {
        self.op.set_phase_recorder(rec);
    }

    /// Take the phase recorder back from the operator.
    pub fn take_phase_recorder(&mut self) -> Option<PhaseRecorder> {
        self.op.take_phase_recorder()
    }

    /// Push `batch` through the operator and close its window. A failed
    /// attempt leaves staged keys in the operator, so every attempt starts
    /// from a clean window (the operator already rolled the sink back).
    pub fn attempt(&mut self, gpu: &mut Gpu, batch: &[(u64, u64)]) -> Attempt {
        self.op.reset();
        let before = gpu.snapshot();
        let result = self
            .op
            .push(gpu, self.index.as_dyn(), batch, &mut self.sink)
            .and_then(|()| self.op.flush_now(gpu, self.index.as_dyn(), &mut self.sink))
            .map(|_| ());
        let delta = gpu.snapshot() - before;
        let est_s = self.cost.estimate(&delta, false).total_s;
        Attempt {
            result,
            delta,
            est_s,
        }
    }

    /// Window and match totals of the last successful attempt.
    pub fn stats(&self) -> WindowStats {
        self.op.stats()
    }

    /// Drain the sink: `(rid, local position)` pairs of the last attempt.
    pub fn take_pairs(&mut self) -> Vec<(u64, u64)> {
        let pairs = self.sink.host_pairs();
        self.sink.clear();
        pairs
    }

    /// Drop whatever the sink holds (the batch is being abandoned).
    pub fn clear_sink(&mut self) {
        self.sink.clear();
    }

    /// Step one rung down the capacity ladder: halve the shared window
    /// (not below `MIN_WINDOW_TUPLES`), else spill the sink to CPU memory.
    /// `None` means the ladder is exhausted and the batch must be shed.
    pub fn degrade(&mut self, gpu: &mut Gpu) -> Result<Option<Rung>, WindexError> {
        if self.window_tuples > MIN_WINDOW_TUPLES {
            let from = self.window_tuples;
            let to = (from / 2).max(MIN_WINDOW_TUPLES);
            self.window_tuples = to;
            // Carry the phase recorder onto the replacement operator so the
            // run's breakdown stays whole.
            let rec = self.op.take_phase_recorder();
            self.op = operator(gpu, to, self.bits, self.min_key)?;
            self.op.set_phase_recorder(rec);
            return Ok(Some(Rung::WindowShrunk { from, to }));
        }
        if self.sink_loc == MemLocation::Gpu {
            self.sink_loc = MemLocation::Cpu;
            self.replace_sink(gpu)?;
            return Ok(Some(Rung::SinkSpilled));
        }
        Ok(None)
    }

    /// Rebuild the device-dependent state after a whole-device loss
    /// detected at `lost_at_s`: flush the memory system (the replacement
    /// device starts cold), wait out the loss window on the device clock,
    /// and rebuild index, operator, and sink from the host-resident column.
    /// The device clock is left at the clearance instant.
    pub fn recover(&mut self, gpu: &mut Gpu, lost_at_s: f64) -> Result<Recovery, WindexError> {
        // Carry the phase recorder across the rebuild so the trace's
        // breakdown stays whole.
        let rec = self.op.take_phase_recorder();
        gpu.reset_memory_system();
        let cleared_at_s = gpu.chaos_clearance_s().max(lost_at_s);
        gpu.set_virtual_time(cleared_at_s);
        let before = gpu.snapshot();
        self.index = BuiltIndex::build(gpu, self.index_kind, &self.col, &IndexConfigs::default());
        self.op = operator(gpu, self.window_tuples, self.bits, self.min_key)?;
        self.op.set_phase_recorder(rec);
        self.replace_sink(gpu)?;
        let delta = gpu.snapshot() - before;
        Ok(Recovery {
            cleared_at_s,
            rebuild_s: self.cost.estimate(&delta, false).total_s,
        })
    }

    /// Re-stage the lane over `keys` and rebuild its index there (a
    /// re-shard grew the lane's slice). Returns the priced rebuild time.
    pub fn reindex(&mut self, gpu: &mut Gpu, keys: Vec<u64>) -> f64 {
        let before = gpu.snapshot();
        let col = Rc::new(gpu.alloc_host_from_vec(keys));
        let index = BuiltIndex::build(gpu, self.index_kind, &col, &IndexConfigs::default());
        let delta = gpu.snapshot() - before;
        self.col = col;
        self.index = index;
        self.cost.estimate(&delta, false).total_s
    }

    /// Allocate a fresh sink at the current placement, then free the old.
    fn replace_sink(&mut self, gpu: &mut Gpu) -> Result<(), WindexError> {
        let fresh = ResultSink::with_capacity(gpu, self.window_tuples, self.sink_loc)?;
        std::mem::replace(&mut self.sink, fresh).free(gpu);
        Ok(())
    }
}

/// A shared windowed operator of `window_tuples` keys.
fn operator(
    gpu: &mut Gpu,
    window_tuples: usize,
    bits: PartitionBits,
    min_key: u64,
) -> Result<StreamingWindowJoin, WindexError> {
    let cfg = WindowConfig {
        window_tuples,
        bits,
        min_key,
    };
    StreamingWindowJoin::new(gpu, cfg)
}
