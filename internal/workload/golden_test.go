package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"multiscalar/internal/trace"
)

// goldenMSTC pins the SHA-256 of the MSTC encoding of each workload's
// first 20,000 steps. The digests were recorded before the encoder's
// dictionary lookup and the generator's segment buffer were reworked:
// neither change may move a byte of the on-disk format.
var goldenMSTC = map[string]string{
	"boolmin": "fb7e21b169400145d4a433c21ed0d08741c402c9d72e6754a11ca6a6e6594510",
	"exprc":   "ad0eecc36aab991ef113b3c50925ad3f2094cbc2a1b83e4882543799aeedcff9",
}

const goldenMSTCSteps = 20000

// TestMSTCGoldenDigests encodes each pinned workload both ways a trace
// reaches disk — streamed from the generator through a trace.Writer
// (mtrace record) and from the memoized columns (Columnar.Encode) — and
// checks both against the recorded digest.
func TestMSTCGoldenDigests(t *testing.T) {
	for name, want := range goldenMSTC {
		t.Run(name, func(t *testing.T) {
			w, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := w.Graph()
			if err != nil {
				t.Fatal(err)
			}
			var streamed bytes.Buffer
			tw, err := trace.NewWriter(&streamed, g)
			if err != nil {
				t.Fatal(err)
			}
			gen := NewGenerator(g, goldenMSTCSteps)
			for {
				seg, err := gen.Next()
				if err != nil {
					t.Fatal(err)
				}
				if seg == nil {
					break
				}
				if err := tw.Append(seg); err != nil {
					t.Fatal(err)
				}
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			c, err := CachedColumnar(name, goldenMSTCSteps)
			if err != nil {
				t.Fatal(err)
			}
			var memo bytes.Buffer
			if err := c.Encode(&memo); err != nil {
				t.Fatal(err)
			}
			for _, enc := range []struct {
				how string
				raw []byte
			}{{"Writer", streamed.Bytes()}, {"Columnar.Encode", memo.Bytes()}} {
				sum := sha256.Sum256(enc.raw)
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("%s: MSTC sha256 %s, want %s", enc.how, got, want)
				}
			}
		})
	}
}
