//! The benchmark's own arithmetic over campaign results.

use xr_experiments::CampaignRow;

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Mean absolute percentage error of `predicted` against `measured` over
/// `pairs` of `(predicted, measured)`.
pub fn mape_pct(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let (mut sum, mut count) = (0.0, 0usize);
    for (predicted, measured) in pairs {
        sum += (predicted - measured).abs() / measured;
        count += 1;
    }
    100.0 * sum / count as f64
}

/// The paper's accuracy claim over a campaign: `(latency, energy)` MAPE of
/// the proposed model against the replication-mean ground truth.
pub fn model_mape_pct(rows: &[CampaignRow]) -> (f64, f64) {
    (
        mape_pct(
            rows.iter()
                .map(|row| (row.proposed_latency_ms, row.gt_latency_ms.mean)),
        ),
        mape_pct(
            rows.iter()
                .map(|row| (row.proposed_energy_mj, row.gt_energy_mj.mean)),
        ),
    )
}

/// Share of attempted points that failed to emit a row. A campaign aborts
/// on its first failing point, so every row it did not emit counts.
pub fn failed_point_share(rows_emitted: usize, points_attempted: usize) -> f64 {
    1.0 - rows_emitted as f64 / points_attempted as f64
}

/// FNV-1a 64-bit digest, for comparing two commits' CSV bytes exactly.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn mape_averages_relative_errors() {
        // |110 − 100| / 100 = 10 %, |45 − 50| / 50 = 10 %, |3 − 3| = 0 %.
        let pct = mape_pct([(110.0, 100.0), (45.0, 50.0), (3.0, 3.0)]);
        assert!((pct - 20.0 / 3.0).abs() < 1e-12, "{pct}");
    }

    #[test]
    fn failed_share_counts_every_missing_row() {
        assert_eq!(failed_point_share(120, 120), 0.0);
        // An abort at point 30 of 120 loses 90 rows.
        assert_eq!(failed_point_share(30, 120), 0.75);
        assert_eq!(failed_point_share(0, 4), 1.0);
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
