//! Eden-style implementation (paper §4.2).
//!
//! "In Eden, we build arrays in chunked form, as lists of 1k-element
//! vectors, so that the runtime can distribute subarrays to processors while
//! still benefiting from efficient array traversal. Unfortunately, Eden
//! loses performance across the entire range. Eden's backend misses a
//! floating-point optimization on sinf and cosf calls, resulting in about
//! 50% longer run time on a single thread."
//!
//! The missed optimization is modeled honestly: this version computes the
//! trigonometry through `f64` `sin`/`cos` with conversions (what GHC's
//! backend emitted instead of the fused single-precision calls), and the
//! element flow goes through boxed pipelines. Every task's input includes a
//! full copy of the sample arrays (Eden serializes everything a task
//! references).

use triolet::RunStats;
use triolet_baselines::{boxed_pipeline, EdenError, EdenRt};
use triolet_serial::wire_struct;

use super::{MriqInput, MriqOutput, Samples};

/// Largest chunk size Eden code uses for its lists of vectors (the paper
/// used 1k-element vectors at ~16x our pixel counts; the chunk shrinks when
/// needed so every process gets work — "the Eden code subdivides data in
/// order to produce enough work to occupy all threads", §4.4).
pub const EDEN_CHUNK: usize = 1024;

/// Chunk size for a given pixel count and machine size.
fn chunk_size(pixels: usize, total_procs: usize) -> usize {
    (pixels / (2 * total_procs).max(1)).clamp(32, EDEN_CHUNK)
}

/// One Eden task: a pixel chunk plus its copy of all samples.
#[derive(Clone)]
pub struct EdenTask {
    start: usize,
    x: Vec<f32>,
    y: Vec<f32>,
    z: Vec<f32>,
    samples: Samples,
}

wire_struct!(EdenTask { start, x, y, z, samples });

/// The slower trig path: f64 libm calls with conversions (the missed
/// `sinf`/`cosf` optimization).
#[inline]
fn ftcoeff_f64(samples: &Samples, k: usize, x: f32, y: f32, z: f32) -> (f32, f32) {
    let arg = 2.0
        * std::f64::consts::PI
        * (samples.kx[k] as f64 * x as f64
            + samples.ky[k] as f64 * y as f64
            + samples.kz[k] as f64 * z as f64);
    let mag = samples.phi_mag[k] as f64;
    ((mag * arg.cos()) as f32, (mag * arg.sin()) as f32)
}

/// Run mri-q through the Eden runtime.
pub fn run_eden(rt: &EdenRt, input: &MriqInput) -> Result<(MriqOutput, RunStats), EdenError> {
    let samples = input.samples();
    let n = input.num_pixels();
    let chunk = chunk_size(n, rt.nodes() * rt.procs_per_node());
    // Chunked arrays: one task per chunk, each dragging a sample copy.
    let tasks: Vec<EdenTask> = (0..n)
        .step_by(chunk)
        .map(|start| {
            let end = (start + chunk).min(n);
            EdenTask {
                start,
                x: input.x[start..end].to_vec(),
                y: input.y[start..end].to_vec(),
                z: input.z[start..end].to_vec(),
                samples: samples.clone(),
            }
        })
        .collect();

    let (mut frags, stats) = rt.map_reduce(
        tasks,
        |t: EdenTask| -> Vec<(usize, Vec<f32>, Vec<f32>)> {
            // Boxed pipeline over the chunk (the Eden stepper view).
            let samples = &t.samples;
            let pix =
                boxed_pipeline(t.x.iter().zip(&t.y).zip(&t.z).map(|((&x, &y), &z)| (x, y, z)));
            let mut qr = Vec::with_capacity(t.x.len());
            let mut qi = Vec::with_capacity(t.x.len());
            for (x, y, z) in pix {
                let mut sr = 0.0f32;
                let mut si = 0.0f32;
                for k in 0..samples.kx.len() {
                    let (cr, ci) = ftcoeff_f64(samples, k, x, y, z);
                    sr += cr;
                    si += ci;
                }
                qr.push(sr);
                qi.push(si);
            }
            vec![(t.start, qr, qi)]
        },
        |mut a, mut b| {
            a.append(&mut b);
            a
        },
        Vec::new,
    )?;

    frags.sort_by_key(|(start, _, _)| *start);
    let mut qr = Vec::with_capacity(n);
    let mut qi = Vec::with_capacity(n);
    for (_, r, i) in frags {
        qr.extend(r);
        qi.extend(i);
    }
    Ok((MriqOutput { qr, qi }, stats))
}
