//! The deterministic seeded traffic generator.
//!
//! Production Propeller sees warehouse traffic, not benchmarks: many
//! tenants with Zipf-distributed shares, bursts when a popular
//! application cuts a release, stray cancellations, and the occasional
//! job whose declared footprint cannot fit under the per-action
//! ceiling. This module turns a seed into that shape — every arrival
//! time, tenant assignment, cancellation, and oversize request is a
//! pure function of the [`TrafficConfig`], so a traffic run replays
//! bit-identically.

use propeller_faults::{splitmix64 as mix, unit_f64};

/// The shape of one synthetic traffic run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficConfig {
    /// Benchmark every job relinks.
    pub benchmark: String,
    /// Generator scale for the tenant programs.
    pub scale: f64,
    /// Seed for arrivals, tenant draws and program variants.
    pub seed: u64,
    /// Number of tenants (`t0` .. `t{n-1}`), sharing traffic by a
    /// Zipf-like weight `1/(i+1)` — tenant 0 is the hot tenant.
    pub tenants: usize,
    /// Planned arrivals (burst amplification adds more at run time).
    pub requests: usize,
    /// Mean modeled seconds between arrivals; actual gaps jitter
    /// uniformly in `[0.5, 1.5] * mean`.
    pub mean_gap_secs: f64,
    /// Every k-th request opens a burst: the next `burst_len` requests
    /// arrive almost simultaneously (0 disables).
    pub burst_every: usize,
    /// Requests per burst after the head.
    pub burst_len: usize,
    /// Every k-th request carries a client-side cancellation (0
    /// disables).
    pub cancel_every: usize,
    /// Modeled seconds after submit at which the client cancels.
    pub cancel_after_secs: f64,
    /// Every k-th request declares a peak RSS above the per-action
    /// ceiling and must be rejected at admission (0 disables).
    pub oversize_every: usize,
    /// Distinct program variants across tenants; tenants `i` and
    /// `i + variants` share a program, so the shared cache sees
    /// cross-tenant hits.
    pub program_variants: usize,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            benchmark: "clang".to_string(),
            scale: 0.002,
            seed: 0xC0FFEE,
            tenants: 3,
            requests: 12,
            mean_gap_secs: 8.0,
            burst_every: 5,
            burst_len: 2,
            cancel_every: 7,
            cancel_after_secs: 4.0,
            oversize_every: 9,
            program_variants: 2,
        }
    }
}

/// One relink job submission.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRequest {
    /// Stable id (traffic order; burst clones get ids past the plan).
    pub id: u64,
    /// Tenant index.
    pub tenant: u32,
    /// Modeled arrival time in microseconds.
    pub arrival_us: u64,
    /// Seed of the program this tenant relinks.
    pub program_seed: u64,
    /// Declared peak RSS the admission controller checks against the
    /// per-action memory ceiling.
    pub declared_peak_bytes: u64,
    /// Client-side cancellation, modeled seconds after submit.
    pub cancel_after_secs: Option<f64>,
}

/// Declared footprint of a well-behaved job: comfortably under the
/// 12 GiB distributed-action ceiling.
pub const NORMAL_PEAK_BYTES: u64 = 6 << 30;
/// Declared footprint of an oversize job: above the ceiling, so the
/// admission controller must refuse it.
pub const OVERSIZE_PEAK_BYTES: u64 = 16 << 30;

/// The program seed of `tenant` under `cfg` — tenants fold onto
/// `program_variants` distinct programs.
pub fn program_seed_for(cfg: &TrafficConfig, tenant: u32) -> u64 {
    let variant = u64::from(tenant) % cfg.program_variants.max(1) as u64;
    mix(cfg.seed ^ 0x9E37_79B9 ^ mix(variant + 1))
}

/// Generate the traffic plan: `cfg.requests` arrivals sorted by time.
pub fn gen_traffic(cfg: &TrafficConfig) -> Vec<JobRequest> {
    let tenants = cfg.tenants.max(1);
    // Zipf-like cumulative weights: tenant i has weight 1/(i+1).
    let weights: Vec<f64> = (0..tenants).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut requests = Vec::with_capacity(cfg.requests);
    let mut t_us: u64 = 0;
    let mut burst_left = 0usize;
    for idx in 0..cfg.requests {
        let idx_u = idx as u64;
        if burst_left > 0 {
            // Burst member: arrive 50 modeled ms after the previous
            // request.
            burst_left -= 1;
            t_us += 50_000;
        } else {
            let u = unit_f64(mix(cfg.seed ^ mix(idx_u + 0xA11)));
            t_us += (cfg.mean_gap_secs * (0.5 + u) * 1e6) as u64;
            if cfg.burst_every > 0 && idx > 0 && idx % cfg.burst_every == 0 {
                burst_left = cfg.burst_len;
            }
        }
        let draw = unit_f64(mix(cfg.seed ^ mix(idx_u + 0x7E2A))) * total;
        let mut acc = 0.0;
        let mut tenant = tenants - 1;
        for (i, w) in weights.iter().enumerate() {
            acc += w;
            if draw < acc {
                tenant = i;
                break;
            }
        }
        let tenant = tenant as u32;
        let oversize = cfg.oversize_every > 0 && idx > 0 && idx % cfg.oversize_every == 0;
        let cancel = cfg.cancel_every > 0 && idx > 0 && idx % cfg.cancel_every == 0;
        requests.push(JobRequest {
            id: idx_u,
            tenant,
            arrival_us: t_us,
            program_seed: program_seed_for(cfg, tenant),
            declared_peak_bytes: if oversize {
                OVERSIZE_PEAK_BYTES
            } else {
                NORMAL_PEAK_BYTES
            },
            cancel_after_secs: cancel.then_some(cfg.cancel_after_secs),
        });
    }
    requests
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_deterministic_and_sorted() {
        let cfg = TrafficConfig::default();
        let a = gen_traffic(&cfg);
        let b = gen_traffic(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.requests);
        assert!(a.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us));
        // A different seed moves at least one arrival.
        let c = gen_traffic(&TrafficConfig {
            seed: cfg.seed + 1,
            ..cfg
        });
        assert_ne!(a, c);
    }

    #[test]
    fn hot_tenant_gets_the_largest_share() {
        let cfg = TrafficConfig {
            requests: 200,
            tenants: 4,
            ..TrafficConfig::default()
        };
        let traffic = gen_traffic(&cfg);
        let mut counts = vec![0usize; 4];
        for r in &traffic {
            counts[r.tenant as usize] += 1;
        }
        assert!(counts[0] > counts[3], "Zipf shares: {counts:?}");
    }

    #[test]
    fn oversize_and_cancel_markers_appear() {
        let cfg = TrafficConfig {
            requests: 30,
            ..TrafficConfig::default()
        };
        let traffic = gen_traffic(&cfg);
        assert!(traffic
            .iter()
            .any(|r| r.declared_peak_bytes == OVERSIZE_PEAK_BYTES));
        assert!(traffic.iter().any(|r| r.cancel_after_secs.is_some()));
    }

    #[test]
    fn tenants_fold_onto_program_variants() {
        let cfg = TrafficConfig {
            tenants: 4,
            program_variants: 2,
            ..TrafficConfig::default()
        };
        assert_eq!(program_seed_for(&cfg, 0), program_seed_for(&cfg, 2));
        assert_eq!(program_seed_for(&cfg, 1), program_seed_for(&cfg, 3));
        assert_ne!(program_seed_for(&cfg, 0), program_seed_for(&cfg, 1));
    }
}
