package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecode exercises the trace decoder with arbitrary inputs: it
// must never panic, anything it accepts must survive an
// encode-and-redecode round trip at the record level, with every
// request's file name intact, and Compile must take it without
// panicking, vouching for it exactly when it validates.
func FuzzDecode(f *testing.F) {
	var seed bytes.Buffer
	_ = sampleTrace().Encode(&seed)
	f.Add(seed.String())
	f.Add("# sdpm-trace v1\nH p 2\nR 0.5 1 2 512 w 0.25 f 3 1 42\n")
	f.Add("H p 1\nP 0 set_rpm 4200 0 73.5\n")
	f.Add("")
	f.Add("H")
	f.Add("R 0 0 0 64 r 0 - 0 0 0")
	f.Add("H p 1\nR nan 0 0 64 r 0 - 0 0 0")
	f.Add("H p -1\nR 0 0 0 64 r 0 - 0 0 0")
	f.Add("H 0 030000000000000")
	// Out of int32 range: a decode error, never a wrapped value.
	f.Add("H p 1\nR 0 4294967296 0 64 r 0 - 0 0 0")
	f.Add("H p 1\nR 0 0 0 64 r 0 - 0 4294967296 0")
	f.Add("H p 1\nP 0 set_rpm 4294967296 0 0")
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := Decode(strings.NewReader(src))
		if err != nil {
			return
		}
		if c := Compile(tr); c.Validated != (tr.Validate() == nil) {
			t.Fatalf("Compile: Validated = %t, Validate() = %v", c.Validated, tr.Validate())
		}
		// Whatever decodes must re-encode and decode to the same
		// number of events of the same kinds.
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("encode of decoded trace failed: %v", err)
		}
		tr2, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v\n%s", err, buf.String())
		}
		if len(tr2.Events) != len(tr.Events) {
			t.Fatalf("event count changed: %d -> %d", len(tr.Events), len(tr2.Events))
		}
		for i := range tr.Events {
			if tr.Events[i].Kind != tr2.Events[i].Kind {
				t.Fatalf("event %d kind changed", i)
			}
			if a, b := tr.FileName(tr.Events[i].Req.File), tr2.FileName(tr2.Events[i].Req.File); a != b {
				t.Fatalf("event %d file changed: %q -> %q", i, a, b)
			}
		}
	})
}
