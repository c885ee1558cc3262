//! Media-fault injection for experiment runs (`repro --faults`).
//!
//! When [`Opts::faults`](crate::exp::Opts) carries a
//! [`simdisk::FaultConfig`], the MINIX LLD stack of the traced experiments
//! (`table4`, `table5`) runs on faulty media: the model is injected into
//! the simulated disk right after format, and at the end of the run the
//! stack is scrubbed, cleanly shut down, and its final image handed to
//! `ldck`, with a footnote under the table reporting the degraded-mode
//! counters. The other stacks (plain MINIX, SunOS) stay on perfect media:
//! they have no retry machinery, so the first read fault would abort the
//! whole run — the dedicated `faults` experiment covers that comparison.
//!
//! With `Opts::faults == None` nothing here runs at all, keeping
//! fault-free experiment output byte-identical to a build without the
//! fault model.

use ld_core::LogicalDisk;
use simdisk::FaultConfig;

use crate::driver::Bencher;
use crate::exp::Opts;

/// Parses a `--faults` spec: comma-separated `key=value` pairs.
///
/// Keys: `seed` (schedule seed), `transient`, `latent`, `grown`,
/// `background` (rates in parts per million sectors), and `maxfail`
/// (times a transient sector fails before it recovers). Unmentioned keys
/// keep [`FaultConfig::default`]'s values, except the seed which defaults
/// to 1 so `--faults transient=2000` alone is a valid spec.
pub fn parse_spec(spec: &str) -> Result<FaultConfig, String> {
    let mut cfg = FaultConfig {
        seed: 1,
        ..FaultConfig::default()
    };
    for pair in spec.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("bad --faults item {pair:?}; want key=value"))?;
        let n: u64 = value
            .parse()
            .map_err(|_| format!("bad --faults value in {pair:?}"))?;
        let narrow =
            || u32::try_from(n).map_err(|_| format!("--faults value too large in {pair:?}"));
        match key {
            "seed" => cfg.seed = n,
            "transient" => cfg.transient_ppm = narrow()?,
            "maxfail" => cfg.transient_max_failures = narrow()?,
            "latent" => cfg.latent_ppm = narrow()?,
            "grown" => cfg.grown_ppm = narrow()?,
            "background" => cfg.background_ppm = narrow()?,
            other => return Err(format!("unknown --faults key {other:?}")),
        }
    }
    Ok(cfg)
}

/// Injects the configured fault model into an already-formatted MINIX LLD
/// stack (format itself always runs on clean media, like a factory-fresh
/// drive whose defects grow in service). No-op when faults are off or the
/// stack has no LD store.
pub fn inject(fs: &mut dyn Bencher, opts: &Opts) {
    if let (Some(cfg), Some(store)) = (&opts.faults, fs.ld_store()) {
        store.disk_mut().set_faults(*cfg);
    }
}

/// Finishes a faulted MINIX LLD run: scrubs the suspects the workload's
/// retries recorded, shuts the LD down cleanly (so the remap table reaches
/// the checkpoint), checks the final image with `ldck`, and returns a
/// footnote line with the degraded-mode counters. The stack is unusable
/// afterwards. Returns an empty string — and does none of the above — when
/// faults are off or the stack has no LD store.
pub fn finish(fs: &mut dyn Bencher, opts: &Opts) -> String {
    if opts.faults.is_none() || fs.ld_store().is_none() {
        return String::new();
    }
    fs.sync();
    let Some(store) = fs.ld_store() else {
        return String::new();
    };
    let (relocated, _, _) = store.lld_mut().scrub().expect("scrub");
    store.lld_mut().shutdown().expect("clean shutdown");
    let stats = *store.lld().stats();
    let report = ldck::check_image(&store.disk().image_bytes(), &crate::rig::lld_config());
    let verdict = if report.is_clean() {
        "clean".to_string()
    } else {
        format!("{} error(s)", report.errors().count())
    };
    format!(
        "  [MINIX LLD faults: {} retries, {} sectors remapped, {} unreadable blocks, \
         {} blocks relocated, ldck {verdict}]\n",
        stats.retries, stats.remapped_sectors, stats.unreadable_blocks, relocated
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_keys_and_defaults() {
        let cfg = parse_spec("seed=7,transient=2000,latent=50").expect("parse");
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.transient_ppm, 2000);
        assert_eq!(cfg.latent_ppm, 50);
        assert_eq!(cfg.grown_ppm, 0);
        assert_eq!(cfg.transient_max_failures, 2);
        // Seed defaults to 1 when unmentioned.
        assert_eq!(parse_spec("transient=10").expect("parse").seed, 1);
        assert!(parse_spec("bogus=1").is_err());
        assert!(parse_spec("transient").is_err());
        assert!(parse_spec("transient=zap").is_err());
    }
}
