package main

import "time"

// now is the harness's only wall-clock read. The simulator runs on virtual
// time and searchlint forbids the host clock everywhere else; a benchmark
// exists to measure host time, so the exemption is quarantined here and
// elapsed times are always computed as now().Sub(t0).
func now() time.Time {
	//lint:ignore walltime the benchmark measures host time by design; readings are reported, never fed into simulation state
	return time.Now()
}

// since returns the host seconds elapsed from t0.
func since(t0 time.Time) float64 { return now().Sub(t0).Seconds() }
