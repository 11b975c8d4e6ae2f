package mobisense

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzParseShard: every input parses to a well-formed shard or fails
// cleanly. "" is no sharding; any other accepted shard has
// 0 <= Index < Count, and its canonical "i/n" form parses back to it.
// The seed corpus is testdata/fuzz/FuzzParseShard.
func FuzzParseShard(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		sh, err := ParseShard(s)
		if err != nil {
			if sh != (Shard{}) {
				t.Fatalf("ParseShard(%q) failed with %v but returned %+v", s, err, sh)
			}
			return
		}
		if s == "" {
			if sh != (Shard{}) {
				t.Fatalf("ParseShard(\"\") = %+v, want no sharding", sh)
			}
			return
		}
		if sh.Count < 1 || sh.Index < 0 || sh.Index >= sh.Count {
			t.Fatalf("ParseShard(%q) = %+v, want 0 <= i < n", s, sh)
		}
		canon := fmt.Sprintf("%d/%d", sh.Index, sh.Count)
		if back, err := ParseShard(canon); err != nil || back != sh {
			t.Fatalf("ParseShard(%q) = %+v, but its form %q parses to %+v, %v", s, sh, canon, back, err)
		}
	})
}

// FuzzParseAxis: every input parses to a valid built-in axis or fails
// cleanly. An accepted axis passes validate (finite values, whole numbers
// on integer axes), has one value per listed value, and its canonical
// "name=v1,v2" form parses back to the same values. The seed corpus is
// testdata/fuzz/FuzzParseAxis.
func FuzzParseAxis(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		ax, err := ParseAxis(spec)
		if err != nil {
			return
		}
		if err := ax.validate(); err != nil {
			t.Fatalf("ParseAxis(%q) returned an invalid axis: %v", spec, err)
		}
		if !slices.Contains(AxisNames(), ax.Name) {
			t.Fatalf("ParseAxis(%q) returned unknown axis %q", spec, ax.Name)
		}
		_, list, _ := strings.Cut(spec, "=")
		if n := strings.Count(list, ",") + 1; ax.size() != n {
			t.Fatalf("ParseAxis(%q) has %d values, want %d", spec, ax.size(), n)
		}
		vals := slices.Clone(ax.Strings)
		for _, v := range ax.Values {
			vals = append(vals, AxisValue{Value: v}.ValueString())
		}
		canon := ax.Name + "=" + strings.Join(vals, ",")
		back, err := ParseAxis(canon)
		if err != nil || !slices.Equal(back.Values, ax.Values) || !slices.Equal(back.Strings, ax.Strings) {
			t.Fatalf("ParseAxis(%q) = %v %v, but its form %q parses to %v %v, %v", spec, ax.Values, ax.Strings, canon, back.Values, back.Strings, err)
		}
	})
}
