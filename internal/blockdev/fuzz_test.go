package blockdev

import "testing"

// FuzzParseFaultScript holds the CLI fault grammar to two properties:
// it never panics, and every rule it returns is structurally valid.
func FuzzParseFaultScript(f *testing.F) {
	for _, s := range []string{
		"disk=0,mode=err,every=3;disk=1,mode=hang,from=10",
		"disk=1,mode=hang,minlen=1048576;mode=err,every=7,minlen=1048576",
		"disk=0,mode=err,every=5,minlen=1048576",
		"disk=1,mode=delay,delay=40ms,minlen=1048576",
		"disk=1,mode=err,every=1,minlen=1048576",
		"minlen=1048576,mode=err,every=5",
		"mode=err,class=persistent,from=2,to=4",
		"mode=delay,delay=-1ms", "mode=err,to=1,from=1", "disk=-2,mode=hang",
		";", "mode", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rules, err := ParseFaultScript(s)
		if err != nil {
			return
		}
		if len(rules) == 0 {
			t.Fatalf("ParseFaultScript(%q) accepted no rules", s)
		}
		for i, r := range rules {
			if err := r.validate(); err != nil {
				t.Fatalf("ParseFaultScript(%q) rule %d: %v", s, i, err)
			}
		}
	})
}
