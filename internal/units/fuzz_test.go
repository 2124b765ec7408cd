package units

import "testing"

// FuzzParseSize holds the CLI size parser to three properties: it
// never panics, it never accepts a negative size, and every size it
// accepts survives formatSize and back unchanged.
func FuzzParseSize(f *testing.F) {
	for _, s := range []string{"4096", "0", "64KiB", "8M", "1GiB", " 2 MiB ", "-1",
		"9999999999G", "8589934591GiB", "+5K", "1.5M", "KiB", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseSize(s)
		if err != nil {
			return
		}
		if n < 0 {
			t.Fatalf("ParseSize(%q) = %d", s, n)
		}
		back, err := ParseSize(formatSize(n))
		if err != nil || back != n {
			t.Fatalf("ParseSize(formatSize(%d)) = %d, %v", n, back, err)
		}
	})
}
