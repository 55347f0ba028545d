package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/scenario"
)

// referenceSeed is the workload seed whose outputs are pinned in
// reference.json. On any other seed the check is the program's own
// oracle-versus-engine agreement.
const referenceSeed = 1

//go:embed reference.json
var referenceJSON []byte

// Reference pins, per workload, what the reference seed must produce:
// a digest of every checked cell's (key, outcome, output), the same per
// cell so a mismatch is counted cell by cell, and the exact simulated
// counts of the traced run, which a change to the simulator's speed
// alone must leave identical.
type Reference struct {
	Seed      int64                  `json:"seed"`
	Workloads map[string]RefWorkload `json:"workloads"`
}

// RefWorkload is one workload's pinned outputs.
type RefWorkload struct {
	Digest string            `json:"digest"`
	Cells  map[string]string `json:"cells"`
	Counts map[string]int64  `json:"counts,omitempty"`
}

func loadReference() (Reference, error) {
	var ref Reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// cellKey names a report row the way the ledger and the fleet do.
func cellKey(cr scenario.CellResult) string {
	c, err := scenario.CellFromNames(cr.Family, cr.N, cr.Engine, cr.Protocol, cr.Seed)
	if err != nil {
		return fmt.Sprintf("%s|%d|%s|%s|%d", cr.Family, cr.N, cr.Engine, cr.Protocol, cr.Seed)
	}
	return c.Key()
}

// cellHash folds the checked part of a cell: its outcome and output.
func cellHash(cr scenario.CellResult) string {
	h := sha256.Sum256([]byte(cr.Outcome + "\x00" + cr.Output))
	return hex.EncodeToString(h[:8])
}

// cellSet is the checked content of a set of report rows, by cell key.
type cellSet map[string]string

func (cs cellSet) add(cells []scenario.CellResult) {
	for _, cr := range cells {
		cs[cellKey(cr)] = cellHash(cr)
	}
}

// digest is one hash over the whole set, independent of row order.
func (cs cellSet) digest() string {
	keys := make([]string, 0, len(cs))
	for k := range cs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, cs[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// mismatches compares cs with want both ways. keys names, in order,
// every cell that differs, that want lacks, or that cs lacks; missing
// counts the last kind alone.
func (cs cellSet) mismatches(want map[string]string) (keys []string, missing int) {
	all := make([]string, 0, len(cs)+len(want))
	for k := range cs {
		all = append(all, k)
	}
	for k := range want {
		if _, ok := cs[k]; !ok {
			all = append(all, k)
		}
	}
	sort.Strings(all)
	for _, k := range all {
		got, inGot := cs[k]
		w, inWant := want[k]
		if inGot && inWant && got == w {
			continue
		}
		keys = append(keys, k)
		if !inGot {
			missing++
		}
	}
	return keys, missing
}

// Check accumulates what a run attempted and what failed. Problems make
// the run incorrect; notes are reported but do not fail it.
type Check struct {
	Attempted int
	Failed    int
	Problems  []string
	Notes     []string
	failed    map[string]bool // by unit and cell key
}

// fail counts a cell of one unit or run as failed, once however many
// checks it fails.
func (c *Check) fail(what, key string) {
	k := what + "\x00" + key
	if c.failed[k] {
		return
	}
	if c.failed == nil {
		c.failed = map[string]bool{}
	}
	c.failed[k] = true
	c.Failed++
}

func (c *Check) problem(format string, args ...any) {
	if len(c.Problems) < 20 {
		c.Problems = append(c.Problems, fmt.Sprintf(format, args...))
	}
}

func (c *Check) note(format string, args ...any) {
	c.Notes = append(c.Notes, fmt.Sprintf(format, args...))
}

// Correct reports whether nothing failed.
func (c *Check) Correct() bool { return c.Failed == 0 && len(c.Problems) == 0 }

// cells classifies report rows: diverged and infra cells fail.
func (c *Check) cells(rows []scenario.CellResult, what string) {
	c.Attempted += len(rows)
	for _, cr := range rows {
		if cr.Outcome == scenario.OutcomeDiverged || cr.Outcome == scenario.OutcomeInfra {
			c.fail(what, cellKey(cr))
			c.problem("%s: cell %s is %s: %s%s", what, cellKey(cr), cr.Outcome, cr.Divergence, cr.Error)
		}
	}
}

// cellCount fails the cells a run left out, on any seed: each run of a
// workload returns the same number of cells.
func (c *Check) cellCount(got, want int, what string) {
	if want == 0 || got == want {
		return
	}
	if got < want {
		c.Attempted += want - got
	}
	c.Failed += max(want-got, got-want)
	c.problem("%s: %d cells, the workload has %d", what, got, want)
}

// compare fails every cell of got that differs from want or that want
// lacks, and every cell of want that got lacks. A lacking cell should
// have run, so it counts as attempted too.
func (c *Check) compare(got cellSet, want map[string]string, what, against string) {
	keys, missing := got.mismatches(want)
	if len(keys) == 0 {
		return
	}
	c.Attempted += missing
	for _, k := range keys {
		c.fail(what, k)
	}
	c.problem("%s: %d cells differ from %s (%d of them missing), first %s",
		what, len(keys), against, missing, strings.Join(keys[:min(3, len(keys))], ", "))
}

// reference compares got with the pinned cells and their digest.
func (c *Check) reference(got cellSet, ref *RefWorkload, what string) {
	c.compare(got, ref.Cells, what, "the reference")
	c.digest(got, ref.Digest, what)
}

// digest compares got's digest with a pinned one.
func (c *Check) digest(got cellSet, want, what string) {
	if d := got.digest(); d != want {
		c.problem("%s: cell digest %s, the reference has %s", what, d, want)
	}
}

// counts compares exact counts with the reference and notes changes.
func (c *Check) counts(got, want map[string]int64, what string) {
	if want == nil {
		return
	}
	names := make([]string, 0, len(want))
	for k := range want {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if got[k] != want[k] {
			c.note("%s: exact count %s changed: reference %d, now %d", what, k, want[k], got[k])
		}
	}
}

// writeReference stores ref as perfbench/reference.json under the
// checkout root (the working directory).
func writeReference(ref Reference) error {
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile("perfbench/reference.json", append(data, '\n'), 0o644)
}
