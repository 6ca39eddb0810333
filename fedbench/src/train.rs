//! `train_testbed`: serial PPO training (Algorithm 1) on the paper's N=3
//! testbed. One op is one PPO iteration: 250 env steps plus one update.
//!
//! `train_drl_opt` reports nothing per iteration, so per-op latency comes
//! from its serial loop rebuilt here from public calls, each of which can
//! be timed from outside. Throughput and set-up come from `train_drl_opt`
//! itself: after the latency phase it trains the same episodes in one
//! call, and its output must equal the rebuilt loop's bit for bit (the
//! per-episode `mean_cost` series and the trained controller's JSON).

use crate::measure::{
    bracket, cost_vs_maxfreq, derive_seed, peak_rss_mib, reset_peak_rss, run_phase, Clocks,
    PhasePlan, SetupTimes,
};
use crate::spans::{Analysis, Tracer};
use crate::{Metric, Outcome, RunArgs};
use fl_bench::Scenario;
use fl_ctrl::{train_drl_opt, DrlController, FlFreqEnv, RunOptions, TrainConfig, TrainOutput};
use fl_rl::{Environment, PpoAgent, RolloutBuffer, Transition};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Tail percentile: a run has at least `MIN_OPS` ops, so p90 has at least
/// ten samples beyond it.
pub const TAIL_Q: f64 = 0.90;
const MIN_OPS: usize = 100;
/// Untimed ops before the measured phase.
const WARMUP_OPS: usize = 4;
/// Ops (from the first, warm-up included) whose decisions make up
/// `cost_vs_maxfreq`; fixed so the value is a pure function of the seed.
const QUALITY_OPS: usize = 100;
/// Episode budget in the config; the loop stops on time, not on this.
const EPISODE_BUDGET: usize = 1_000_000;

fn scenario(seed: u64) -> Scenario {
    let mut sc = Scenario::testbed();
    sc.seed = derive_seed(seed, 0x07E5_7BED);
    sc
}

/// The RNG `Scenario::train` derives from the scenario seed.
fn train_rng(sc: &Scenario) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(sc.seed ^ 0xD51)
}

/// Algorithm 1's state between steps.
struct Trainer {
    config: TrainConfig,
    lambda: f64,
    env: FlFreqEnv,
    agent: PpoAgent,
    buffer: RolloutBuffer,
    rng: ChaCha8Rng,
    obs: Vec<f64>,
    in_episode: bool,
    cost_sum: f64,
    steps: usize,
    ops_done: usize,
    /// Per-episode mean system cost — the Fig. 6(b) series.
    mean_costs: Vec<f64>,
    /// `(start time, DRL cost)` of every step in the first
    /// [`QUALITY_OPS`] ops.
    quality_steps: Vec<(f64, f64)>,
}

/// The set-up a user pays before the first PPO iteration: build the
/// scenario's system, then everything `train_drl_opt` does before its first
/// episode (it is asked to stop after zero episodes).
fn setup(sc: &Scenario) -> Result<TrainOutput, String> {
    let sys = sc.build();
    let opts = RunOptions {
        stop_after_episodes: Some(0),
        ..RunOptions::default()
    };
    train_drl_opt(
        &sys,
        &sc.train_config(EPISODE_BUDGET),
        &mut train_rng(sc),
        &opts,
    )
    .map_err(|e| e.to_string())
}

impl Trainer {
    /// The state `train_drl_opt` starts its loop from.
    fn new(sc: &Scenario) -> Result<Trainer, String> {
        let sys = sc.build();
        let config = sc.train_config(EPISODE_BUDGET);
        config.validate().map_err(|e| e.to_string())?;
        let mut rng = train_rng(sc);
        let lambda = sys.config().lambda;
        let env = FlFreqEnv::new(sys, config.env).map_err(|e| e.to_string())?;
        let agent = PpoAgent::new(
            env.obs_dim(),
            env.action_dim(),
            config.ppo.clone(),
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        let buffer = agent.make_buffer().map_err(|e| e.to_string())?;
        Ok(Trainer {
            config,
            lambda,
            env,
            agent,
            buffer,
            rng,
            obs: Vec::new(),
            in_episode: false,
            cost_sum: 0.0,
            steps: 0,
            ops_done: 0,
            mean_costs: Vec::new(),
            quality_steps: Vec::new(),
        })
    }

    /// One env step (with the episode reset before it, if due). Returns
    /// whether the step filled the buffer and triggered an update.
    fn step(&mut self, tr: &mut Tracer) -> Result<bool, String> {
        if !self.in_episode {
            let open = tr.begin("fl-ctrl.env_reset", false);
            self.env.seek_episode(self.mean_costs.len() as u64);
            self.obs = self.env.reset(&mut self.rng).map_err(|e| e.to_string())?;
            tr.end(open);
            self.in_episode = true;
            self.cost_sum = 0.0;
            self.steps = 0;
        }
        let (agent, rng, env) = (&mut self.agent, &mut self.rng, &mut self.env);
        let out = tr
            .wrap("fl-rl.act", || agent.act(&self.obs, rng))
            .map_err(|e| e.to_string())?;
        let step = tr
            .wrap("fl-ctrl.env_step", || env.step(&out.action))
            .map_err(|e| e.to_string())?;
        let report = env.last_report();
        let cost = report.map(|r| r.cost(self.lambda)).unwrap_or(-step.reward);
        self.cost_sum += cost;
        self.steps += 1;
        if self.ops_done < QUALITY_OPS {
            let start = report
                .map(|r| r.start_time)
                .ok_or("step produced no report")?;
            self.quality_steps.push((start, cost));
        }
        let transition = Transition {
            obs: out.norm_obs,
            action: out.action,
            log_prob: out.log_prob,
            reward: step.reward * self.config.reward_scale,
            value: out.value,
            done: step.done,
        };
        let buffer = &mut self.buffer;
        tr.wrap("fl-rl.buffer_push", || buffer.push(transition))
            .map_err(|e| e.to_string())?;
        let full = self.buffer.is_full();
        if full {
            let last_value = if step.done {
                0.0
            } else {
                let agent = &self.agent;
                tr.wrap("fl-rl.bootstrap_value", || agent.bootstrap_value(&step.obs))
                    .map_err(|e| e.to_string())?
            };
            let (agent, buffer, rng) = (&mut self.agent, &self.buffer, &mut self.rng);
            let open = tr.begin("fl-rl.update", true);
            let stats = agent.update(buffer, last_value, rng);
            tr.end(open);
            stats.map_err(|e| e.to_string())?;
            let buffer = &mut self.buffer;
            tr.wrap("fl-rl.buffer_clear", || buffer.clear());
        }
        if step.done {
            self.mean_costs
                .push(self.cost_sum / self.steps.max(1) as f64);
            self.in_episode = false;
        } else {
            self.obs = step.obs;
        }
        Ok(full)
    }

    /// One op: step until the buffer fills and the update has run.
    fn op(&mut self, index: usize, tr: &mut Tracer) -> Result<(), String> {
        tr.set_trace(index as u64);
        let open = tr.begin("train.op", false);
        while !self.step(tr)? {}
        tr.end(open);
        self.ops_done += 1;
        Ok(())
    }

    /// The controller `train_drl_opt` would return at this point.
    fn controller_json(&self) -> Result<String, String> {
        let env = &self.config.env;
        let mut c = DrlController::new(
            self.agent.policy().clone(),
            self.agent.obs_norm().clone(),
            env.slot_h,
            env.history_len,
            env.min_freq_frac,
        )
        .map_err(|e| e.to_string())?;
        c.participation_tail = env.faults_enabled();
        c.obs_mode = env.obs;
        c.to_json().map_err(|e| e.to_string())
    }
}

/// `train_drl_opt` on the first `episodes` episodes, timed as one call:
/// what a user of the training pipeline waits for.
fn reference(sc: &Scenario, episodes: usize) -> Result<(TrainOutput, Clocks), String> {
    let sys = sc.build();
    let config = sc.train_config(episodes);
    let mut rng = train_rng(sc);
    bracket(|| {
        train_drl_opt(&sys, &config, &mut rng, &RunOptions::default()).map_err(|e| e.to_string())
    })
}

/// Bit-equality of the rebuilt loop's state against `train_drl_opt`.
fn check_against(
    reference: &TrainOutput,
    trainer: &Trainer,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let episodes = trainer.mean_costs.len();
    let same_costs = reference.episodes.len() == episodes
        && reference
            .episodes
            .iter()
            .zip(&trainer.mean_costs)
            .all(|(a, b)| a.mean_cost.to_bits() == b.to_bits());
    if !same_costs {
        failures.push(format!(
            "train: per-episode mean_cost over {episodes} episodes differs from train_drl_opt"
        ));
    }
    let json = reference.controller.to_json().map_err(|e| e.to_string())?;
    if json != trainer.controller_json()? {
        failures.push(format!(
            "train: controller after {episodes} episodes differs from train_drl_opt"
        ));
    }
    Ok(())
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
    let sc = scenario(args.seed);
    let mut setups = SetupTimes::default();
    setups.time(|| setup(&sc))?;
    let mut trainer = Trainer::new(&sc)?;
    reset_peak_rss()?;
    // An untraced run splits its time between the latency phase and the
    // `train_drl_opt` call that replays it.
    let seconds = if args.trace {
        args.seconds
    } else {
        args.seconds / 2.0
    };
    let mut tr = Tracer::off();
    let phase = run_phase(
        plan(seconds, args.trace),
        |i, traced| {
            tr.set_on(traced);
            trainer.op(i, &mut tr).map(|()| true)
        },
        || setups.time(|| setup(&sc)).map(drop),
    )?;
    let rss = peak_rss_mib()?;
    check_finite(&trainer.mean_costs, &mut out.failures);
    let (reference, clocks) = reference(&sc, trainer.mean_costs.len())?;
    check_against(&reference, &trainer, &mut out.failures)?;
    if args.trace {
        out.per_layer(vec![tr.into_spans()], &phase, layer_metrics);
    } else {
        out.fact("setup_reps", setups.reps() as f64);
        let quality = trainer.quality_steps.iter().copied();
        let cost = cost_vs_maxfreq(trainer.env.system(), quality)?;
        let iterations = trainer.ops_done;
        out.end_to_end(setups.median_s(), &phase, (iterations, clocks), rss, cost);
    }
    Ok(out)
}

fn check_finite(mean_costs: &[f64], failures: &mut Vec<String>) {
    if let Some(i) = mean_costs.iter().position(|c| !c.is_finite() || *c <= 0.0) {
        failures.push(format!(
            "train: episode {i} has mean cost {}",
            mean_costs[i]
        ));
    }
}

fn layer_metrics(a: &Analysis) -> Vec<Metric> {
    let update = a.layer("fl-rl.update");
    vec![
        Metric::new("fl-rl.update.ms_p50", update.p50_ms(), "ms"),
        Metric::new("fl-rl.update.share", a.share("fl-rl.update"), "ratio"),
        Metric::new("fl-rl.update.cpu_per_wall", update.cpu_per_wall(), "ratio"),
        Metric::new(
            "fl-rl.act.us_p50",
            a.layer("fl-rl.act").p50_ms() * 1e3,
            "us",
        ),
        Metric::new("fl-rl.act.share", a.share("fl-rl.act"), "ratio"),
        Metric::new(
            "fl-ctrl.env_step.us_p50",
            a.layer("fl-ctrl.env_step").p50_ms() * 1e3,
            "us",
        ),
        Metric::new(
            "fl-ctrl.env_step.share",
            a.share("fl-ctrl.env_step"),
            "ratio",
        ),
        Metric::new(
            "fl-rl.buffer_push.us_p50",
            a.layer("fl-rl.buffer_push").p50_ms() * 1e3,
            "us",
        ),
        Metric::new("train.other_share", 1.0 - a.coverage(), "ratio"),
    ]
}
