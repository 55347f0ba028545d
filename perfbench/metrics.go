package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// Metric is one reported number with its unit, as it appears in the
// result line's "metrics" object.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports whether name and unit are well-formed: a name of
// at most 64 characters from [A-Za-z0-9_.-] starting with a letter or
// digit, a unit of at most 16 characters from [A-Za-z0-9_/%.-].
func validMetric(name, unit string) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("metric name %q must match %s", name, metricNameRE)
	}
	if !metricUnitRE.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q must match %s", name, unit, metricUnitRE)
	}
	return nil
}

// Metrics is a named set of metrics. Set refuses malformed names and
// non-finite values, which only a bug in this program can produce.
type Metrics map[string]Metric

// Set records one metric.
func (m Metrics) Set(name, unit string, v float64) {
	if err := validMetric(name, unit); err != nil {
		panic(err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("metric %s: non-finite value %v", name, v))
	}
	m[name] = Metric{Value: v, Unit: unit}
}

// Names returns the metric names in sorted order.
func (m Metrics) Names() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// minBeyond is the number of samples that must lie above a reported
// percentile: a p95 needs at least 200 samples, a median at least 20.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples:
// the value at 1-based rank ceil(p·n) in sorted order. It refuses
// (ok=false) when fewer than minBeyond samples lie beyond that rank,
// since a tail percentile read from a handful of samples is one sample.
func percentile(samples []float64, p float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	// The epsilon keeps exact products such as 0.95·200 from rounding
	// up past their rank through floating-point error.
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], true
}

// median is the middle of a small set of measurements: the set-up
// groups' bests, a kernel's batches, or the in-process cells' fastest
// leg times (large-n has only 10 cells). Unlike percentile it does not
// refuse.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// unattributed is the part of the parent's capacity (shards × wall) not
// covered by the wrapped child calls. It is an error for the children
// to exceed the parent: every shard runs one wrapped call at a time, so
// a negative residue means the timing wrappers overlap or double count.
func unattributed(shards int, wallNs, childNs int64) (int64, error) {
	capacity := int64(shards) * wallNs
	if childNs > capacity {
		return 0, fmt.Errorf("wrapped calls take %d ns, more than %d shards × %d ns wall", childNs, shards, wallNs)
	}
	return capacity - childNs, nil
}
