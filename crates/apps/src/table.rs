//! The app table: each app is declared once, as one `Spec` record, and
//! every consumer — the `triolet-app` binary, `repro`'s sweeps and the tests
//! — iterates [`APPS`] through the type-erased [`App`] and [`Instance`]
//! views instead of matching on apps and implementations itself.

use std::any::Any;
use std::fmt;

use triolet::prelude::*;
use triolet_baselines::{EdenError, EdenRt, LowLevelRt};
use triolet_cluster::clock;

use crate::{cutcp, kmeans, mriq, sgemm, tpacf};

/// Which implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Impl {
    /// Plain sequential loops: the paper's sequential C.
    Seq,
    /// Triolet skeletons.
    Triolet,
    /// Hand-partitioned C+MPI+OpenMP style.
    Lowlevel,
    /// Eden-style skeletons.
    Eden,
}

impl Impl {
    /// Every implementation, in `--impl` order.
    pub const ALL: [Impl; 4] = [Impl::Seq, Impl::Triolet, Impl::Lowlevel, Impl::Eden];

    /// Its `--impl` value: the variant's name in lower case.
    pub fn flag(self) -> String {
        format!("{self:?}").to_lowercase()
    }
}

/// Input scale of `repro`: `Quick` for CI-speed smoke runs, `Paper` for the
/// evaluation-shaped runs recorded in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long total runtime; tiny inputs.
    Quick,
    /// Minutes-long total runtime; the scaled-down Parboil shapes.
    Paper,
}

/// One size key of an app: its `--key` flag (without the dashes), the flag's
/// default, and its value at each [`Scale`].
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub key: &'static str,
    pub cli: usize,
    pub quick: usize,
    pub paper: usize,
}

/// An Eden-style implementation; the runtime may refuse a message.
type EdenFn<I, O> = fn(&EdenRt, &I) -> Result<(O, RunStats), EdenError>;

/// One distributed implementation, by the runtime it runs on.
enum Arm<I, O> {
    /// On a [`Triolet`] runtime, which records the run's timeline.
    Triolet(fn(&Triolet, &I) -> Run<O>),
    LowLevel(fn(&LowLevelRt, &I) -> (O, RunStats)),
    Eden(EdenFn<I, O>),
}

/// One app, typed: the record every view of the table is derived from.
struct Spec<I: 'static, O: 'static> {
    /// CLI name (`triolet-app <name>`).
    name: &'static str,
    /// Display name, in banners and figures.
    title: &'static str,
    /// Size keys, in the order `generate` takes their values.
    sizes: &'static [Size],
    generate: fn(&[usize], u64) -> I,
    /// The reference every other implementation is validated against.
    seq: fn(&I) -> O,
    arms: &'static [(Impl, Arm<I, O>)],
    /// Does `got`, from an implementation, match the reference within that
    /// implementation's tolerance?
    validate: fn(&O, &O, Impl) -> bool,
    /// The report the CLI prints after a run's stats.
    summary: fn(&I, &O, Impl, &RunStats) -> String,
}

/// The table: the paper's four apps (§4) in the order of its Figures 4, 5, 7
/// and 8, then k-means, the iterative workload of the residency ablation.
pub static APPS: [&dyn App; 5] = [&MRIQ, &SGEMM, &TPACF, &CUTCP, &KMEANS];

/// The app with CLI name `name`.
pub fn app(name: &str) -> Option<&'static dyn App> {
    APPS.iter().copied().find(|app| app.name() == name)
}

// `Paper` sizes mirror the computational shape of the Parboil datasets the
// paper selected ("sequential C running time between 20 and 200 seconds"),
// scaled down ~100x so a full sweep finishes in minutes: the kernels are
// identical, only the element counts shrink.

static MRIQ: Spec<mriq::MriqInput, mriq::MriqOutput> = Spec {
    name: "mriq",
    title: "mri-q",
    sizes: &[
        Size { key: "pixels", cli: 4096, quick: 512, paper: 16_384 },
        Size { key: "samples", cli: 512, quick: 128, paper: 2_048 },
    ],
    generate: |s, seed| mriq::generate(s[0], s[1], seed),
    seq: mriq::run_seq,
    arms: &[
        (Impl::Triolet, Arm::Triolet(mriq::run_triolet)),
        (Impl::Lowlevel, Arm::LowLevel(mriq::run_lowlevel)),
        (Impl::Eden, Arm::Eden(mriq::run_eden)),
    ],
    validate: |a, b, imp| mriq::validate(a, b, if imp == Impl::Eden { 1e-3 } else { 1e-4 }),
    summary: |_, out, _, _| {
        let power = |(&r, &i): (&f32, &f32)| (r as f64).powi(2) + (i as f64).powi(2);
        let energy: f64 = out.qr.iter().zip(&out.qi).map(power).sum();
        format!("pixels={} image_energy={energy:.3}", out.qr.len())
    },
};

static SGEMM: Spec<sgemm::SgemmInput, Array2<f32>> = Spec {
    name: "sgemm",
    title: "sgemm",
    sizes: &[Size { key: "dim", cli: 256, quick: 120, paper: 384 }],
    generate: |s, seed| sgemm::generate(s[0], seed),
    seq: sgemm::run_seq,
    arms: &[
        (Impl::Triolet, Arm::Triolet(sgemm::run_triolet)),
        (Impl::Lowlevel, Arm::LowLevel(sgemm::run_lowlevel)),
        (Impl::Eden, Arm::Eden(sgemm::run_eden)),
    ],
    validate: |a, b, _| sgemm::validate(a, b, 1e-4),
    summary: |_, c, _, _| {
        let frob: f64 = c.as_slice().iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt();
        format!("output={}x{} frobenius_norm={frob:.3}", c.rows(), c.cols())
    },
};

static TPACF: Spec<tpacf::TpacfInput, tpacf::TpacfOutput> = Spec {
    name: "tpacf",
    title: "tpacf",
    sizes: &[
        Size { key: "points", cli: 512, quick: 192, paper: 512 },
        // 128 random sets at `Paper` (the paper used 100): the outer loop
        // must expose at least 128-way parallelism for the 128-core sweep.
        Size { key: "sets", cli: 16, quick: 4, paper: 128 },
        Size { key: "bins", cli: 32, quick: 32, paper: 32 },
    ],
    generate: |s, seed| tpacf::generate(s[0], s[1], s[2], seed),
    seq: tpacf::run_seq,
    arms: &[
        (Impl::Triolet, Arm::Triolet(tpacf::run_triolet)),
        (Impl::Lowlevel, Arm::LowLevel(tpacf::run_lowlevel)),
        (Impl::Eden, Arm::Eden(tpacf::run_eden)),
    ],
    validate: |a, b, _| tpacf::validate(a, b),
    summary: |input, out, _, _| {
        // The estimator the application exists to compute (Landy-Szalay-ish
        // per-bin ratio), over the first few bins.
        let nr = input.rands.len().max(1) as f64;
        let preview: Vec<String> = (out.dd.iter().zip(&out.dr).zip(&out.rr).take(8))
            .map(|((&dd, &dr), &rr)| {
                let rr = (rr as f64 / nr).max(1.0);
                format!("{:.2}", (dd as f64 - 2.0 * dr as f64 / nr + rr) / rr)
            })
            .collect();
        let sum = |h: &[u64]| h.iter().sum::<u64>();
        let (dd, dr, rr, preview) = (sum(&out.dd), sum(&out.dr), sum(&out.rr), preview.join(", "));
        format!("pairs: dd={dd} dr={dr} rr={rr}\nw(theta) first bins: [{preview}]")
    },
};

static CUTCP: Spec<cutcp::CutcpInput, Vec<f64>> = Spec {
    name: "cutcp",
    title: "cutcp",
    sizes: &[
        // Enough atoms at `Paper` that compute dominates until the per-node
        // grid reduction bites (the paper's saturation), not before.
        Size { key: "atoms", cli: 4096, quick: 256, paper: 65_536 },
        Size { key: "dim", cli: 32, quick: 16, paper: 48 },
    ],
    generate: |s, seed| cutcp::generate(s[0], s[1], seed),
    seq: cutcp::run_seq,
    arms: &[
        (Impl::Triolet, Arm::Triolet(cutcp::run_triolet)),
        (Impl::Lowlevel, Arm::LowLevel(cutcp::run_lowlevel)),
        (Impl::Eden, Arm::Eden(cutcp::run_eden)),
    ],
    validate: |a, b, _| cutcp::validate(a, b, 1e-9),
    summary: |_, grid, _, _| {
        let nonzero = grid.iter().filter(|v| v.abs() > 1e-12).count();
        let peak = grid.iter().fold(0.0f64, |a, b| a.max(b.abs()));
        let total: f64 = grid.iter().sum();
        format!(
            "grid_cells={} nonzero={nonzero} peak_abs={peak:.4} total_potential={total:.4}",
            grid.len()
        )
    },
};

/// k-means has no Eden or low-level version: its `Lowlevel` slot holds the
/// re-broadcast control arm of the residency ablation, `Triolet` the
/// resident run.
static KMEANS: Spec<kmeans::KmeansInput, kmeans::KmeansRun> = Spec {
    name: "kmeans",
    title: "kmeans",
    sizes: &[
        Size { key: "points", cli: 8192, quick: 2_048, paper: 65_536 },
        Size { key: "k", cli: 8, quick: 4, paper: 16 },
        Size { key: "iters", cli: 10, quick: 5, paper: 20 },
    ],
    generate: |s, seed| kmeans::generate(s[0], s[1], s[2], seed),
    seq: |input| kmeans::KmeansRun {
        centroids: kmeans::run_seq(input),
        scatter_bytes: 0,
        sweep_bytes: 0,
        iters: input.iters as u64,
    },
    arms: &[
        (Impl::Triolet, Arm::Triolet(kmeans::run_resident)),
        (Impl::Lowlevel, Arm::Triolet(kmeans::run_rebroadcast)),
    ],
    validate: |a, b, _| kmeans::validate(&a.centroids, &b.centroids, 1e-9),
    summary: |input, r, imp, stats| {
        let inertia: f64 = (input.points.iter())
            .map(|&p| kmeans::dist2(r.centroids[kmeans::nearest(&r.centroids, p)], p))
            .sum();
        let summary = format!("k={} iters={} inertia={inertia:.3}", input.k, input.iters);
        let (scatter, sweeps, per_iter) = (r.scatter_bytes, r.sweep_bytes, r.bytes_per_iter());
        match imp {
            Impl::Triolet => format!(
                "resident: scatter={scatter}B sweeps={sweeps}B ({per_iter:.1}B/iter) hits={} \
                 misses={}\n{summary}",
                stats.resident_hits, stats.resident_misses
            ),
            Impl::Lowlevel => {
                format!("rebroadcast: sweeps={sweeps}B ({per_iter:.1}B/iter)\n{summary}")
            }
            _ => summary,
        }
    },
};

/// An app of the table, its input and output types erased.
pub trait App: Sync {
    /// CLI name.
    fn name(&self) -> &'static str;
    /// Display name.
    fn title(&self) -> &'static str;
    /// Size keys, in the order [`generate`](App::generate) takes their values.
    fn sizes(&self) -> &'static [Size];
    /// The implementations it has, `Seq` first.
    fn impls(&self) -> Vec<Impl>;
    /// The seeded input at these size values.
    fn generate(&self, sizes: &[usize], seed: u64) -> Box<dyn Instance + '_>;

    /// The seeded input at `scale`.
    fn at(&self, scale: Scale, seed: u64) -> Box<dyn Instance + '_> {
        let sizes: Vec<usize> = (self.sizes().iter())
            .map(|s| if scale == Scale::Quick { s.quick } else { s.paper })
            .collect();
        self.generate(&sizes, seed)
    }
}

/// A generated input, bound to its app's implementations.
pub trait Instance {
    /// The app it is an input of.
    fn app(&self) -> &dyn App;
    /// Run `imp` on a virtual cluster configured by `cfg`. `Seq` ignores
    /// `cfg` and reports its host seconds as [`RunStats::local`]; `Eden`
    /// refuses a `cfg` whose fault plan is not [`FaultPlan::none`].
    fn run(&self, imp: Impl, cfg: ClusterConfig) -> Result<Outcome, AppError>;
    /// Does `got` match the reference `expect` within the tolerance of the
    /// implementation that produced it?
    fn validate(&self, expect: &Outcome, got: &Outcome) -> bool;
    /// The report the CLI prints after the stats line.
    fn summary(&self, out: &Outcome) -> String;
}

/// What one run of an implementation gives back.
pub struct Outcome {
    /// The implementation that ran.
    pub imp: Impl,
    /// Modeled time and traffic (host seconds for `Seq`).
    pub stats: RunStats,
    /// The recorded timeline: empty unless the implementation ran on a
    /// Triolet runtime whose `cfg` switched tracing on.
    pub trace: TraceData,
    value: Box<dyn Any>,
}

/// Why an implementation did not run.
#[derive(Debug)]
pub enum AppError {
    /// The app has no such implementation; the text names those it has.
    Missing(String),
    /// The Eden runtime failed (sgemm's buffer overflow beyond one node).
    Eden(EdenError),
    /// A fault plan was given to this app's Eden run, which injects none.
    EdenFaults(&'static str),
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Missing(why) => f.write_str(why),
            AppError::Eden(e) => write!(f, "eden runtime failure: {e}"),
            AppError::EdenFaults(app) => write!(
                f,
                "{app} --impl eden takes no fault flags: the Eden runtime injects no faults"
            ),
        }
    }
}

impl<I, O> App for Spec<I, O> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn sizes(&self) -> &'static [Size] {
        self.sizes
    }

    fn impls(&self) -> Vec<Impl> {
        std::iter::once(Impl::Seq).chain(self.arms.iter().map(|&(imp, _)| imp)).collect()
    }

    fn generate(&self, sizes: &[usize], seed: u64) -> Box<dyn Instance + '_> {
        Box::new(Loaded { spec: self, input: (self.generate)(sizes, seed) })
    }
}

struct Loaded<'a, I: 'static, O: 'static> {
    spec: &'a Spec<I, O>,
    input: I,
}

impl<I, O> Instance for Loaded<'_, I, O> {
    fn app(&self) -> &dyn App {
        self.spec
    }

    fn run(&self, imp: Impl, cfg: ClusterConfig) -> Result<Outcome, AppError> {
        let (spec, input) = (self.spec, &self.input);
        let run = match (imp, spec.arms.iter().find(|(slot, _)| *slot == imp)) {
            (Impl::Seq, _) => {
                let (value, seconds) = clock::timed(|| (spec.seq)(input));
                Run::new(value, RunStats::local(seconds))
            }
            (_, Some((_, Arm::Triolet(f)))) => f(&Triolet::new(cfg), input),
            // The baselines return no timeline, so they record none.
            (_, Some((_, Arm::LowLevel(f)))) => {
                let (value, stats) = f(&LowLevelRt::new(cfg.with_trace(false)), input);
                Run::new(value, stats)
            }
            (_, Some((_, Arm::Eden(_)))) if cfg.faults != FaultPlan::none() => {
                return Err(AppError::EdenFaults(spec.name));
            }
            (_, Some((_, Arm::Eden(f)))) => {
                let eden = EdenRt::new(cfg.nodes, cfg.threads_per_node);
                let (value, stats) = f(&eden, input).map_err(AppError::Eden)?;
                Run::new(value, stats)
            }
            (_, None) => {
                let names: Vec<String> = spec.impls().iter().map(|i| i.flag()).collect();
                let (name, flag, names) = (spec.name, imp.flag(), names.join("|"));
                let why = format!("{name} has no {flag} implementation; use --impl {names}");
                return Err(AppError::Missing(why));
            }
        };
        Ok(Outcome { imp, stats: run.stats, trace: run.trace, value: Box::new(run.value) })
    }

    fn validate(&self, expect: &Outcome, got: &Outcome) -> bool {
        (self.spec.validate)(output(expect), output(got), got.imp)
    }

    fn summary(&self, out: &Outcome) -> String {
        (self.spec.summary)(&self.input, output(out), out.imp, &out.stats)
    }
}

fn output<O: 'static>(out: &Outcome) -> &O {
    out.value.downcast_ref().expect("an outcome goes back to the instance that produced it")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pair_in_the_table_matches_its_sequential_run() {
        let cfg = ClusterConfig::virtual_cluster(2, 2);
        for app in APPS {
            let input = app.at(Scale::Quick, 1);
            let expect = input.run(Impl::Seq, cfg).expect("every app has a sequential version");
            for imp in Impl::ALL {
                let (name, flag) = (app.name(), imp.flag());
                match input.run(imp, cfg) {
                    Ok(got) => {
                        assert!(app.impls().contains(&imp), "{name} ran {flag}");
                        assert!(got.stats.total_s > 0.0, "{name} {flag}: no time");
                        assert!(input.validate(&expect, &got), "{name} {flag} differs from seq");
                    }
                    Err(e) => {
                        assert!(!app.impls().contains(&imp), "{name} {flag}: {e}");
                        assert!(matches!(e, AppError::Missing(_)), "{name} {flag}: {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_missing_implementation_names_the_ones_there_are() {
        let kmeans = app("kmeans").expect("in the table");
        let err = kmeans.at(Scale::Quick, 1).run(Impl::Eden, ClusterConfig::virtual_cluster(1, 1));
        let text = err.err().expect("kmeans has no Eden version").to_string();
        assert_eq!(text, "kmeans has no eden implementation; use --impl seq|triolet|lowlevel");
    }

    #[test]
    fn eden_refuses_fault_flags_and_runs_fault_free_as_before() {
        let mriq_app = app("mriq").expect("in the table");
        let sizes = mriq_app.sizes().iter().map(|s| (s.key, s.quick));
        let flags = ["--impl", "eden", "--nodes", "4", "--threads", "2", "--crash", "1"];
        let opts = crate::cli::Opts::new(sizes).parse(flags.map(String::from)).expect("parses");
        let input = mriq_app.generate(&opts.values(), opts.seed);
        let text = match input.run(opts.imp, opts.cluster_config()) {
            Err(e @ AppError::EdenFaults(_)) => e.to_string(),
            other => panic!("a crash plan must be refused, got {:?}", other.map(|o| o.stats)),
        };
        assert_eq!(
            text,
            "mriq --impl eden takes no fault flags: the Eden runtime injects no faults"
        );

        // Without faults, the table runs exactly what `mriq::run_eden` runs.
        let got = input.run(Impl::Eden, ClusterConfig::virtual_cluster(4, 2)).expect("runs");
        let [pixels, samples] = opts.values()[..] else { panic!("two size keys") };
        let direct = mriq::generate(pixels, samples, opts.seed);
        let (value, stats) = mriq::run_eden(&EdenRt::new(4, 2), &direct).expect("fits");
        assert_eq!(output::<mriq::MriqOutput>(&got), &value);
        let traffic = |s: &RunStats| (s.bytes_out, s.bytes_back, s.messages);
        assert_eq!(traffic(&got.stats), traffic(&stats));
    }

    #[test]
    fn eden_sgemm_fails_at_two_nodes_paper_scale_only() {
        let sgemm = app("sgemm").expect("in the table");
        let eden = |scale, procs| {
            sgemm.at(scale, 2).run(Impl::Eden, ClusterConfig::virtual_cluster(2, procs))
        };
        // Quick sgemm (120x120) fits the buffers even at 2 nodes; the paper
        // size does not, and the runtime refuses before any body runs.
        assert!(eden(Scale::Quick, 4).is_ok());
        assert!(matches!(
            eden(Scale::Paper, 16),
            Err(AppError::Eden(EdenError::MessageTooLarge { .. }))
        ));
    }
}
