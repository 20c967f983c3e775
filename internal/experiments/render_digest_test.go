package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/render_digests.txt")

// digestCfg is the truncation the render digests are pinned at: long
// enough that every predictor family trains, aliases and (in spec mode)
// rolls back, short enough that the whole matrix renders in seconds.
var digestCfg = Config{MaxSteps: 6000, TimingSteps: 4000, Workers: 2}

const digestFile = "testdata/render_digests.txt"

// renderForDigest renders one experiment through the resilient batch
// runner, exactly as mbench does, and drops the wall-clock "[name done
// in …]" lines so only the experiment's own table bytes remain.
func renderForDigest(t *testing.T, r Runner) string {
	t.Helper()
	var b strings.Builder
	out := RunResilient(&b, digestCfg, []Runner{r}, RunOptions{})
	if err := out[0].Err; err != nil {
		t.Fatalf("%s: %v", r.Name, err)
	}
	lines := strings.Split(b.String(), "\n")
	kept := lines[:0]
	for _, l := range lines {
		if strings.HasPrefix(l, "[") && strings.HasSuffix(l, "]") {
			continue
		}
		kept = append(kept, l)
	}
	return strings.Join(kept, "\n")
}

// TestRenderDigests pins the rendered bytes of every experiment across
// commits: each experiment's output at digestCfg must hash to the
// SHA-256 recorded in testdata/render_digests.txt. A refactor of the
// predictors, replay kernels or engine that changes any rendered digit
// fails here. After a deliberate change of results, regenerate with
//
//	go test ./internal/experiments -run TestRenderDigests -update-digests
func TestRenderDigests(t *testing.T) {
	got := make(map[string]string)
	var names []string
	for _, r := range All() {
		sum := sha256.Sum256([]byte(renderForDigest(t, r)))
		got[r.Name] = hex.EncodeToString(sum[:])
		names = append(names, r.Name)
	}

	if *updateDigests {
		var b strings.Builder
		fmt.Fprintf(&b, "# SHA-256 of each experiment's rendered output at steps=%d timing=%d\n",
			digestCfg.MaxSteps, digestCfg.TimingSteps)
		b.WriteString("# regenerate: go test ./internal/experiments -run TestRenderDigests -update-digests\n")
		for _, n := range names {
			fmt.Fprintf(&b, "%s  %s\n", got[n], n)
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (run with -update-digests to create)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		want[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		w, ok := want[n]
		switch {
		case !ok:
			t.Errorf("%s: no recorded digest (new experiment? regenerate with -update-digests)", n)
		case w != got[n]:
			t.Errorf("%s: rendered output drifted: digest %s, recorded %s", n, got[n], w)
		}
		delete(want, n)
	}
	for n := range want {
		t.Errorf("%s: recorded digest for an experiment that no longer exists", n)
	}
}
