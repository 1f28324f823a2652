// Package cost is the runtime cost model behind engine auto-selection and
// deadline-aware scheduling: an asymptotic predictor of reconstruction time
// over (support, width, radius, TopM, delta size), with per-engine constants
// fitted from the committed benchmark reports and optionally refined on the
// serving host by a self-calibration pass.
//
// # Contract
//
//   - The model is pure arithmetic: no engine imports, no clocks, no I/O
//     beyond the explicit report loaders and writer. core consults cost for
//     auto-selection; the dependency never points the other way.
//   - Predict is finite and strictly positive for every modeled engine, and
//     monotone non-decreasing in both support and radius (coefficients are
//     clamped non-negative; the shape fractions are CDFs). The fuzz suite
//     pins all three properties.
//   - Fit never fails: degenerate sample sets clamp to zero coefficients
//     rather than producing a model that can rank engines backwards by
//     numeric accident.
//   - The committed BENCH_core.json doubles as the model's regression
//     suite: EvaluateCore replays every single-threaded row and scores
//     whether Choose would have picked the measured winner. CI regenerates
//     the benchmark, refits, and gates that selection accuracy holds on
//     fresh data (cmd/costfit).
//   - Active/SetActive swap the process-wide model atomically; readers keep
//     whatever model they loaded, so a calibration can land mid-traffic.
//
// # Shape
//
// Every engine's prediction decomposes as
//
//	Setup + PerOutcome·N + work·perPair(radius, bits)
//
// where work is the unordered pair count N(N−1)/2 for batch engines and
// delta·N for the incremental engine, and perPair combines two geometric
// fractions: the admitted fraction A(r,n) (a Binomial(n,½) CDF — how many
// pairs fall inside the radius and cost accumulate work) and the candidate
// fraction Cand(r,n) (how many pairs the engine's candidate generator must
// visit: for the weight window a central slice of Binomial(2n,½), for the
// block multi-index Σ_b 2^−k_b over its radius+1 block widths — blocked is
// priced by whichever its own selection rule picks). The fitted constants
// recover each engine's architecture: exact pays PerPairFull on every pair
// (unconditional popcount), and the blocked engine's branch-free inner
// loop, which banks excluded distances like admitted ones, shows up as
// PerAdmit ≈ 0.
package cost
