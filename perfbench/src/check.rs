//! Correctness validators. Every failed check counts into `error_rate`;
//! the validators never panic, they explain.

use optrr::FrontPoint;
use serve::{MatrixDto, Response};

/// What a point query promised: a privacy floor or an MSE budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Promise {
    /// `BestForPrivacy`: privacy ≥ floor.
    PrivacyAtLeast(f64),
    /// `BestForMse`: MSE ≤ budget.
    MseAtMost(f64),
}

/// Column-stochastic with entries in [0, 1]: `columns[i]` is the
/// distribution of reports for true value `i`.
pub fn column_stochastic(matrix: &MatrixDto) -> Result<(), String> {
    let n = matrix.num_categories;
    if n < 2 || matrix.columns.len() != n {
        return Err(format!(
            "matrix has {} columns for n = {n}",
            matrix.columns.len()
        ));
    }
    for (i, column) in matrix.columns.iter().enumerate() {
        if column.len() != n {
            return Err(format!(
                "column {i} has {} entries for n = {n}",
                column.len()
            ));
        }
        if let Some(bad) = column.iter().find(|v| !(0.0..=1.0).contains(*v)) {
            return Err(format!("column {i} holds {bad}, outside [0, 1]"));
        }
        let sum: f64 = column.iter().sum();
        if (sum - 1.0).abs() > rr::STOCHASTIC_TOLERANCE {
            return Err(format!("column {i} sums to {sum}"));
        }
    }
    Ok(())
}

/// Validates a point-query answer against its promise and returns the
/// answer's bitwise digest (for the cross-codec comparison).
pub fn point_answer(response: &Response, n: usize, promise: Promise) -> Result<u64, String> {
    let Response::Matrix {
        privacy,
        mse,
        matrix,
        degraded,
        ..
    } = response
    else {
        return Err(format!("expected a Matrix answer, got {}", brief(response)));
    };
    if *degraded {
        return Err("answer came from a degraded store".into());
    }
    if matrix.num_categories != n {
        return Err(format!(
            "matrix is {}-ary, key is {n}-ary",
            matrix.num_categories
        ));
    }
    column_stochastic(matrix)?;
    match promise {
        Promise::PrivacyAtLeast(floor) if *privacy < floor => {
            return Err(format!("privacy {privacy} below the floor {floor}"))
        }
        Promise::MseAtMost(budget) if *mse > budget => {
            return Err(format!("mse {mse} above the budget {budget}"))
        }
        _ => {}
    }
    Ok(digest_response(response))
}

/// A bitwise fingerprint of a `Matrix` answer's numbers (FNV-1a over the
/// `f64` bit patterns), so `-0.0` vs `0.0` or a last-ulp difference shows;
/// any other response is fingerprinted by its debug rendering.
pub fn digest_response(response: &Response) -> u64 {
    let mut bits: Vec<u64> = Vec::new();
    match response {
        Response::Matrix {
            key,
            privacy,
            mse,
            max_posterior,
            matrix,
            ..
        } => {
            bits.extend([
                *key,
                privacy.to_bits(),
                mse.to_bits(),
                max_posterior.to_bits(),
            ]);
            for column in &matrix.columns {
                bits.extend(column.iter().map(|v| v.to_bits()));
            }
        }
        other => bits.push(optrr::fnv1a_64(format!("{other:?}").bytes().map(u64::from))),
    }
    optrr::fnv1a_64(bits)
}

/// Bitwise equality of two `f64` sequences, naming the first difference.
pub fn bitwise_equal(what: &str, a: &[f64], b: &[f64]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{what}: lengths {} and {}", a.len(), b.len()));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        Some(i) => Err(format!("{what}: entry {i} is {} vs {}", a[i], b[i])),
        None => Ok(()),
    }
}

/// Bitwise equality of two fronts.
pub fn fronts_equal(a: &[FrontPoint], b: &[FrontPoint]) -> Result<(), String> {
    let flat =
        |f: &[FrontPoint]| -> Vec<f64> { f.iter().flat_map(|p| [p.privacy, p.mse]).collect() };
    bitwise_equal("front", &flat(a), &flat(b))
}

/// A reconstructed distribution: `n` finite non-negative entries summing
/// to one.
pub fn distribution(estimate: &[f64], n: usize) -> Result<(), String> {
    if estimate.len() != n {
        return Err(format!(
            "estimate has {} entries for n = {n}",
            estimate.len()
        ));
    }
    if let Some(bad) = estimate.iter().find(|v| !(v.is_finite() && **v >= 0.0)) {
        return Err(format!("estimate holds {bad}"));
    }
    let sum: f64 = estimate.iter().sum();
    if (sum - 1.0).abs() > 1e-9 {
        return Err(format!("estimate sums to {sum}"));
    }
    Ok(())
}

/// A one-line name for a response, for error messages.
pub fn brief(response: &Response) -> String {
    match response {
        Response::Error { reason, code } => format!("Error[{code}]: {reason}"),
        Response::NoMatch { reason, .. } => format!("NoMatch: {reason}"),
        other => {
            let text = format!("{other:?}");
            text.split([' ', '{', '('])
                .next()
                .unwrap_or("?")
                .to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warner(n: usize, keep: f64) -> MatrixDto {
        let off = (1.0 - keep) / (n - 1) as f64;
        MatrixDto {
            num_categories: n,
            columns: (0..n)
                .map(|i| (0..n).map(|j| if i == j { keep } else { off }).collect())
                .collect(),
        }
    }

    fn answer(matrix: MatrixDto, privacy: f64, mse: f64) -> Response {
        Response::Matrix {
            key: 9,
            privacy,
            mse,
            max_posterior: 0.5,
            matrix,
            degraded: false,
        }
    }

    #[test]
    fn a_valid_answer_passes_and_digests_stably() {
        let r = answer(warner(4, 0.7), 0.3, 1e-4);
        let d = point_answer(&r, 4, Promise::PrivacyAtLeast(0.25)).unwrap();
        assert_eq!(d, point_answer(&r, 4, Promise::MseAtMost(2e-4)).unwrap());
    }

    #[test]
    fn corrupted_matrices_are_rejected() {
        let mut m = warner(4, 0.7);
        m.columns[2][1] += 1e-3;
        assert!(column_stochastic(&m).unwrap_err().contains("column 2 sums"));
        let mut m = warner(4, 0.7);
        m.columns[0][3] = -0.1;
        m.columns[0][2] += 0.1;
        assert!(column_stochastic(&m).unwrap_err().contains("outside"));
        let mut m = warner(4, 0.7);
        m.columns[1][1] = f64::NAN;
        assert!(column_stochastic(&m).is_err());
        let mut m = warner(4, 0.7);
        m.columns.pop();
        assert!(column_stochastic(&m).is_err());
    }

    #[test]
    fn broken_promises_are_rejected() {
        let r = answer(warner(4, 0.7), 0.3, 1e-4);
        assert!(point_answer(&r, 4, Promise::PrivacyAtLeast(0.31)).is_err());
        assert!(point_answer(&r, 4, Promise::MseAtMost(9e-5)).is_err());
        assert!(point_answer(&r, 16, Promise::MseAtMost(1.0)).is_err());
        let miss = Response::NoMatch {
            key: 9,
            reason: "none".into(),
            degraded: false,
        };
        assert!(point_answer(&miss, 4, Promise::PrivacyAtLeast(0.0)).is_err());
    }

    #[test]
    fn a_one_ulp_matrix_change_moves_the_digest() {
        let a = answer(warner(4, 0.7), 0.3, 1e-4);
        let mut m = warner(4, 0.7);
        m.columns[3][3] = f64::from_bits(m.columns[3][3].to_bits() + 1);
        let b = answer(m, 0.3, 1e-4);
        assert_ne!(digest_response(&a), digest_response(&b));
    }

    #[test]
    fn corrupted_estimates_are_rejected() {
        let good = vec![0.25, 0.25, 0.3, 0.2];
        assert!(distribution(&good, 4).is_ok());
        let mut flipped = good.clone();
        flipped[2] = f64::from_bits(flipped[2].to_bits() ^ 1);
        assert!(bitwise_equal("estimate", &good, &flipped).is_err());
        assert!(distribution(&[0.5, 0.6, -0.1, 0.0], 4).is_err());
        assert!(distribution(&[0.5, 0.6, 0.0, 0.0], 4).is_err());
        assert!(distribution(&good, 5).is_err());
        assert!(bitwise_equal("estimate", &[0.0], &[-0.0]).is_err());
    }

    #[test]
    fn corrupted_fronts_are_rejected() {
        let front = vec![
            FrontPoint {
                privacy: 0.1,
                mse: 1e-5,
            },
            FrontPoint {
                privacy: 0.4,
                mse: 3e-5,
            },
        ];
        assert!(fronts_equal(&front, &front.clone()).is_ok());
        let mut moved = front.clone();
        moved[1].mse = f64::from_bits(moved[1].mse.to_bits() + 1);
        assert!(fronts_equal(&front, &moved).is_err());
        assert!(fronts_equal(&front, &front[..1]).is_err());
    }
}
