package whatif

import (
	"encoding/json"
	"testing"
)

// TestAppendStringIsMarshal: appendString writes a string as
// json.Marshal does, for the printable ASCII of a diff's text and for
// everything json.Marshal escapes: quotes, backslashes, control
// characters, HTML's <, > and &, U+2028 and invalid UTF-8.
func TestAppendStringIsMarshal(t *testing.T) {
	for _, s := range []string{
		"", "AS3356", "3356 174 {64500,64501} 65000", "poison(AS1,AS2)", "lp(AS1,AS2,50)",
		`"quoted"`, `back\slash`, "tab\tnew\nline\x00", "<a href=\"x\">&amp;</a>", "line sep ", "bad\xffutf8", "héllo",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("%q: appended %s, json.Marshal %s", s, got[1:], want)
		}
	}
}
