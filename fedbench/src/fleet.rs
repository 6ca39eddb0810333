//! `fleet_ctrl_1e5`: controlled rounds on a 10⁵-device fleet. One op is
//! one round: `decide_fleet` (pooled observation, normalisation, broadcast
//! inference, squash) then `run_round_benign` (struct-of-arrays physics).
//!
//! The traced phase rebuilds `decide_fleet` from its public parts so each
//! stage gets a span, and checks the rebuilt decisions against
//! `decide_fleet` bit for bit. After every measured round the fleet is torn
//! down and set up again, which times the set-up once per round.

use crate::measure::{derive_seed, peak_rss_mib, reset_peak_rss, run_phase, PhasePlan, SetupTimes};
use crate::spans::{Analysis, Tracer};
use crate::{Metric, Outcome, RunArgs};
use fl_bench::Scenario;
use fl_ctrl::{squash_to_freq, train_drl, DrlController};
use fl_sim::FleetSim;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;

/// Tail percentile: a run has at least `MIN_OPS` rounds, so p75 has at
/// least ten samples beyond it.
pub const TAIL_Q: f64 = 0.75;
const MIN_OPS: usize = 40;
const WARMUP_OPS: usize = 1;
const DEVICES: usize = 100_000;
/// Shard count of `fig8_scale` (result-invariant; physical only).
const SHARDS: usize = 8;
/// Controller training budget (one PPO update at the scale50 config).
const TRAIN_EPISODES: usize = 20;
/// Rounds (from the first, warm-up included) whose decisions make up
/// `cost_vs_maxfreq`.
const QUALITY_OPS: usize = 8;
/// Traced rounds whose rebuilt decisions are checked against
/// `decide_fleet`.
const GATE_OPS: usize = 6;
/// Round start times stride through the 3600 s traces as in
/// `fl_bench::fleet_perf::run_case`, from a seeded offset.
const STRIDE_S: usize = 97;
const SPAN_S: usize = 3300;

fn scenario(seed: u64) -> Scenario {
    let mut sc = Scenario::scale50();
    sc.seed = derive_seed(seed, 0xF1EE7);
    sc
}

/// Untimed preparation: a pooled broadcast controller trained from the
/// seed on the scenario's N=50 system.
fn train_controller(sc: &Scenario) -> Result<DrlController, String> {
    let sys = sc.build();
    let mut rng = ChaCha8Rng::seed_from_u64(sc.seed ^ 0xD51);
    let out = train_drl(&sys, &sc.train_config_pooled(TRAIN_EPISODES), &mut rng)
        .map_err(|e| e.to_string())?;
    Ok(out.controller)
}

/// Row chunk of the broadcast inference in `decide_fleet`: fl-ctrl's
/// private `FLEET_CHUNK_ROWS`, read from its source, so the rebuilt decide
/// cannot drift from the one it is checked against. Chunking is
/// bit-neutral, so the bit-equality gate alone would not notice.
fn chunk_rows() -> Result<usize, String> {
    const SOURCE: &str = include_str!("../../crates/fl-ctrl/src/controllers.rs");
    SOURCE
        .lines()
        .find_map(|l| {
            let value = l.trim().strip_prefix("const FLEET_CHUNK_ROWS: usize =")?;
            value
                .trim()
                .strip_suffix(';')?
                .replace('_', "")
                .parse()
                .ok()
        })
        .filter(|&rows: &usize| rows > 0)
        .ok_or_else(|| "no `const FLEET_CHUNK_ROWS: usize = <n>;` in fl-ctrl".to_string())
}

/// A fleet and the controller bound to it.
struct Fleet {
    sim: FleetSim,
    ctrl: DrlController,
}

/// The set-up a user pays before the first round: build the fleet and
/// rebind the trained controller to it.
fn setup(sc: &Scenario, trained: &DrlController) -> Result<Fleet, String> {
    let mut sim = sc.build_fleet(DEVICES);
    sim.set_shards(SHARDS);
    let ctrl = trained.with_fleet_sim(&sim).map_err(|e| e.to_string())?;
    Ok(Fleet { sim, ctrl })
}

impl Fleet {
    /// `decide_fleet` rebuilt from its public parts, one span per stage.
    fn decide_traced(
        &self,
        t: f64,
        chunk_rows: usize,
        tr: &mut Tracer,
    ) -> Result<Vec<f64>, String> {
        let ctrl = &self.ctrl;
        let obs = tr
            .wrap("fl-sim.observe_pooled", || {
                self.sim
                    .observe_pooled(t, ctrl.slot_h, ctrl.history_len, None)
            })
            .map_err(|e| e.to_string())?;
        let norm = tr.wrap("fl-rl.normalize", || ctrl.obs_norm().normalize(&obs));
        let open = tr.begin("fl-rl.infer", true);
        let raw = ctrl.policy().mean_action_chunked(&norm, chunk_rows);
        tr.end_items(open, self.sim.num_devices() as u64);
        let raw = raw.map_err(|e| e.to_string())?;
        let caps = &self.sim.state().delta_max_ghz;
        Ok(tr.wrap("fl-ctrl.squash", || {
            caps.iter()
                .zip(&raw)
                .map(|(&cap, &a)| squash_to_freq(a, cap, ctrl.min_freq_frac))
                .collect()
        }))
    }
}

struct Rounds<'a> {
    sc: &'a Scenario,
    trained: &'a DrlController,
    /// `None` only while [`Rounds::rebuild`] sets up its replacement.
    fleet: Option<Fleet>,
    setups: SetupTimes,
    chunk_rows: usize,
    lambda: f64,
    offset: usize,
    /// DRL cost of the first [`QUALITY_OPS`] rounds.
    costs: Vec<f64>,
    /// `(round index, decisions)` of the first [`GATE_OPS`] traced rounds.
    gate: Vec<(usize, Vec<f64>)>,
}

impl Rounds<'_> {
    fn start_time(&self, k: usize) -> f64 {
        60.0 + ((k * STRIDE_S + self.offset) % SPAN_S) as f64
    }

    fn fleet(&mut self) -> Result<&mut Fleet, String> {
        self.fleet
            .as_mut()
            .ok_or_else(|| "fleet set-up failed".to_string())
    }

    /// Tears the fleet down, then times setting it up again. The old fleet
    /// goes first so the peak RSS never holds two.
    fn rebuild(&mut self) -> Result<(), String> {
        self.fleet = None;
        let (sc, trained) = (self.sc, self.trained);
        self.fleet = Some(self.setups.time(|| setup(sc, trained))?);
        Ok(())
    }

    fn op(&mut self, k: usize, tr: &mut Tracer) -> Result<(), String> {
        let t = self.start_time(k);
        let chunk_rows = self.chunk_rows;
        let fleet = self.fleet()?;
        tr.set_trace(k as u64);
        let root = tr.begin("fleet.op", false);
        let freqs = if tr.is_on() {
            fleet.decide_traced(t, chunk_rows, tr)?
        } else {
            fleet
                .ctrl
                .decide_fleet(t, &fleet.sim, None)
                .map_err(|e| e.to_string())?
        };
        let open = tr.begin("fl-sim.run_round", true);
        let round = fleet.sim.run_round_benign(t, &freqs);
        tr.end(open);
        tr.end(root);
        let cost = round.map_err(|e| e.to_string())?.cost(self.lambda);
        if !(cost.is_finite() && cost > 0.0) {
            return Err(format!("round {k} at t={t} has cost {cost}"));
        }
        if k < QUALITY_OPS {
            self.costs.push(cost);
        }
        if tr.is_on() && self.gate.len() < GATE_OPS {
            self.gate.push((k, freqs));
        }
        Ok(())
    }

    /// `Σ DRL cost / Σ MaxFreq cost` over the first [`QUALITY_OPS`] rounds.
    fn cost_vs_maxfreq(&mut self) -> Result<f64, String> {
        let times: Vec<f64> = (0..self.costs.len()).map(|k| self.start_time(k)).collect();
        let (lambda, drl) = (self.lambda, self.costs.iter().sum::<f64>());
        let sim = &mut self.fleet()?.sim;
        let max_freqs = sim.max_freqs();
        let mut max = 0.0;
        for t in times {
            let round = sim
                .run_round_benign(t, &max_freqs)
                .map_err(|e| e.to_string())?;
            max += round.cost(lambda);
        }
        Ok(drl / max)
    }

    /// The rebuilt decisions must equal `decide_fleet` bit for bit.
    fn check_gate(&mut self, failures: &mut Vec<String>) -> Result<(), String> {
        if self.gate.is_empty() {
            failures.push("fleet: no traced round reached the bit-equality gate".to_string());
        }
        let gate = std::mem::take(&mut self.gate);
        for (k, rebuilt) in &gate {
            let t = self.start_time(*k);
            let fleet = self.fleet()?;
            let reference = fleet
                .ctrl
                .decide_fleet(t, &fleet.sim, None)
                .map_err(|e| e.to_string())?;
            let same = reference.len() == rebuilt.len()
                && reference
                    .iter()
                    .zip(rebuilt)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                failures.push(format!(
                    "fleet: rebuilt decisions of round {k} differ from decide_fleet"
                ));
            }
        }
        Ok(())
    }
}

fn plan(seconds: f64, trace: bool) -> PhasePlan {
    PhasePlan {
        warmup_ops: WARMUP_OPS,
        seconds,
        min_ops: MIN_OPS,
        trace,
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::new(TAIL_Q, 1, 0);
    out.fact("devices", DEVICES as f64);
    out.fact("shards", SHARDS as f64);
    let sc = scenario(args.seed);
    let trained = train_controller(&sc)?;
    let mut r = Rounds {
        sc: &sc,
        trained: &trained,
        fleet: None,
        setups: SetupTimes::default(),
        chunk_rows: chunk_rows()?,
        lambda: sc.fl.lambda,
        offset: (derive_seed(args.seed, 0x57A7) % SPAN_S as u64) as usize,
        costs: Vec::new(),
        gate: Vec::new(),
    };
    r.rebuild()?;
    reset_peak_rss()?;
    let r = RefCell::new(r);
    let mut tr = Tracer::off();
    let phase = run_phase(
        plan(args.seconds, args.trace),
        |k, traced| {
            tr.set_on(traced);
            r.borrow_mut().op(k, &mut tr).map(|()| true)
        },
        || r.borrow_mut().rebuild(),
    )?;
    let rss = peak_rss_mib()?;
    let mut r = r.into_inner();
    if args.trace {
        r.check_gate(&mut out.failures)?;
        out.per_layer(vec![tr.into_spans()], &phase, layer_metrics);
    } else {
        out.fact("setup_reps", r.setups.reps() as f64);
        let ops = phase.latencies_ms.len();
        let cost = r.cost_vs_maxfreq()?;
        out.end_to_end(r.setups.median_s(), &phase, (ops, phase.clocks), rss, cost);
    }
    Ok(out)
}

fn layer_metrics(a: &Analysis) -> Vec<Metric> {
    let infer = a.layer("fl-rl.infer");
    let run_round = a.layer("fl-sim.run_round");
    vec![
        Metric::new(
            "fl-sim.observe_pooled.ms_p50",
            a.layer("fl-sim.observe_pooled").p50_ms(),
            "ms",
        ),
        Metric::new(
            "fl-sim.observe_pooled.share",
            a.share("fl-sim.observe_pooled"),
            "ratio",
        ),
        Metric::new(
            "fl-rl.normalize.ms_p50",
            a.layer("fl-rl.normalize").p50_ms(),
            "ms",
        ),
        Metric::new(
            "fl-ctrl.squash.ms_p50",
            a.layer("fl-ctrl.squash").p50_ms(),
            "ms",
        ),
        Metric::new("fl-rl.infer.ms_p50", infer.p50_ms(), "ms"),
        Metric::new("fl-rl.infer.share", a.share("fl-rl.infer"), "ratio"),
        Metric::new(
            "fl-rl.infer.rows_per_s",
            infer.items as f64 / (infer.wall_ns.max(1) as f64 * 1e-9),
            "1/s",
        ),
        Metric::new("fl-rl.infer.cpu_per_wall", infer.cpu_per_wall(), "ratio"),
        Metric::new("fl-sim.run_round.ms_p50", run_round.p50_ms(), "ms"),
        Metric::new(
            "fl-sim.run_round.share",
            a.share("fl-sim.run_round"),
            "ratio",
        ),
        Metric::new(
            "fl-sim.run_round.cpu_per_wall",
            run_round.cpu_per_wall(),
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_chunk_size_is_read_from_fl_ctrl() {
        assert!(super::chunk_rows().unwrap() >= 1);
    }
}
