package xmlx

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func collect(t *testing.T, src string) []Token {
	t.Helper()
	sc := NewScanner([]byte(src))
	var toks []Token
	for {
		tok, err := sc.Next()
		if err != nil {
			t.Fatalf("Next: %v (after %d tokens)", err, len(toks))
		}
		if tok.Kind == KindEOF {
			return toks
		}
		toks = append(toks, tok)
	}
}

func TestScannerSimpleDocument(t *testing.T) {
	toks := collect(t, `<?xml version="1.0"?><root><a>x</a><b attr="v"/></root>`)
	want := []Token{
		{Kind: KindStart, Name: "root"},
		{Kind: KindStart, Name: "a"},
		{Kind: KindText, Text: "x"},
		{Kind: KindEnd, Name: "a"},
		{Kind: KindStart, Name: "b", Attrs: []Attr{{Name: "attr", Value: "v"}}},
		{Kind: KindEnd, Name: "b"},
		{Kind: KindEnd, Name: "root"},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %+v", len(toks), len(want), toks)
	}
	for i, w := range want {
		got := toks[i]
		if got.Kind != w.Kind || got.Name != w.Name || got.Text != w.Text {
			t.Errorf("token %d = %+v, want %+v", i, got, w)
		}
		if len(w.Attrs) > 0 && got.Attr(w.Attrs[0].Name) != w.Attrs[0].Value {
			t.Errorf("token %d attrs = %+v, want %+v", i, got.Attrs, w.Attrs)
		}
	}
}

func TestScannerSkipsCommentsAndPIs(t *testing.T) {
	toks := collect(t, `<!-- c --><?pi data?><!DOCTYPE root><root><!-- inner -->t</root>`)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %+v", len(toks), toks)
	}
	if toks[1].Kind != KindText || toks[1].Text != "t" {
		t.Errorf("middle token = %+v", toks[1])
	}
}

func TestScannerEntities(t *testing.T) {
	toks := collect(t, `<r a="&lt;x&gt;">&amp;&#65;&#x42;&apos;&quot;</r>`)
	if got := toks[0].Attr("a"); got != "<x>" {
		t.Errorf("attr = %q, want %q", got, "<x>")
	}
	if got := toks[1].Text; got != `&AB'"` {
		t.Errorf("text = %q, want %q", got, `&AB'"`)
	}
}

func TestScannerCDATA(t *testing.T) {
	toks := collect(t, `<r><![CDATA[<raw> & unescaped]]></r>`)
	if toks[1].Text != "<raw> & unescaped" {
		t.Errorf("cdata = %q", toks[1].Text)
	}
}

func TestScannerWhitespaceSkipped(t *testing.T) {
	toks := collect(t, "<r>\n  <a/>\n</r>")
	for _, tok := range toks {
		if tok.Kind == KindText {
			t.Errorf("unexpected text token %q", tok.Text)
		}
	}
}

func TestScannerErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"mismatched close", "<a></b>"},
		{"unclosed element", "<a><b></b>"},
		{"unexpected close", "</a>"},
		{"unterminated tag", "<a"},
		{"unterminated comment", "<!-- never ends"},
		{"unterminated cdata", "<a><![CDATA[x</a>"},
		{"text outside root", "hello<a/>"},
		{"bad entity", "<a>&nosuch;</a>"},
		{"unterminated entity", "<a>&amp</a>"},
		{"bad char ref", "<a>&#xZZ;</a>"},
		{"attr without value", "<a attr></a>"},
		{"unquoted attr", "<a attr=v></a>"},
		{"unterminated attr", `<a attr="v></a>`},
		{"bad name", "<1a></1a>"},
		{"second root", "<a></a><b></b>"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sc := NewScanner([]byte(tt.src))
			for i := 0; i < 100; i++ {
				tok, err := sc.Next()
				if err != nil {
					if !errors.Is(err, ErrSyntax) {
						t.Fatalf("error not wrapped in ErrSyntax: %v", err)
					}
					// Errors must be sticky.
					if _, err2 := sc.Next(); err2 == nil {
						t.Fatal("error was not sticky")
					}
					return
				}
				if tok.Kind == KindEOF && tt.name != "second root" {
					t.Fatalf("reached EOF without error")
				}
				if tok.Kind == KindEOF {
					t.Fatal("reached EOF without error")
				}
			}
			t.Fatal("scanner did not terminate")
		})
	}
}

func TestScannerDepth(t *testing.T) {
	sc := NewScanner([]byte("<a><b><c/></b></a>"))
	maxDepth := 0
	for {
		tok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == KindEOF {
			break
		}
		if d := sc.Depth(); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth != 3 {
		t.Errorf("max depth = %d, want 3", maxDepth)
	}
}

func TestParseTree(t *testing.T) {
	src := `<root xmlns="urn:x"><device><friendlyName>Clock &amp; Co</friendlyName>
	<serviceList><service><serviceType>t1</serviceType></service>
	<service><serviceType>t2</serviceType></service></serviceList></device></root>`
	root, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if root.Name != "root" || root.Attr("xmlns") != "urn:x" {
		t.Errorf("root = %q attrs %+v", root.Name, root.Attrs)
	}
	dev := root.Child("device")
	if dev == nil {
		t.Fatal("no device child")
	}
	if got := dev.ChildText("friendlyName"); got != "Clock & Co" {
		t.Errorf("friendlyName = %q", got)
	}
	list := dev.Child("serviceList")
	if list == nil {
		t.Fatal("no serviceList child")
	}
	services := list.Children
	if len(services) != 2 || services[0].Name != "service" || services[1].Name != "service" {
		t.Fatalf("serviceList children = %+v", services)
	}
	if got := services[1].ChildText("serviceType"); got != "t2" {
		t.Errorf("second serviceType = %q", got)
	}
	if root.Child("nosuch") != nil {
		t.Error("Child(nosuch) should be nil")
	}
	if root.ChildText("nosuch") != "" {
		t.Error("ChildText(nosuch) should be empty")
	}
}

func TestTreeNamespacePrefixes(t *testing.T) {
	root, err := Parse([]byte(`<s:Envelope xmlns:s="urn:soap"><s:Body><x/></s:Body></s:Envelope>`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if body := root.Child("Body"); body == nil || body.Name != "s:Body" {
		t.Error("prefixed Body not found by local name")
	}
}

func TestTreeMarshalRoundTrip(t *testing.T) {
	src := `<root><a k="v&quot;x">text &lt;here&gt;</a><b/></root>`
	root, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	again, err := Parse(root.Marshal())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if again.Child("a").Text != root.Child("a").Text {
		t.Errorf("text changed across round trip: %q vs %q", again.Child("a").Text, root.Child("a").Text)
	}
	if again.Child("a").Attr("k") != `v"x` {
		t.Errorf("attr = %q", again.Child("a").Attr("k"))
	}
}

func TestEscapeUnescapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		got, err := Unescape(Escape(s))
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEscapeTreeTextRoundTrip(t *testing.T) {
	// Any text placed in a node must survive marshal/parse.
	f := func(s string) bool {
		// Strip control chars the XML spec forbids; they cannot appear
		// in documents at all.
		clean := strings.Map(func(r rune) rune {
			if r < 0x20 && r != '\t' && r != '\n' && r != '\r' {
				return -1
			}
			return r
		}, s)
		n := &Node{Name: "t", Text: clean}
		back, err := Parse(n.Marshal())
		if err != nil {
			return false
		}
		// The scanner skips whitespace-only text, so compare modulo
		// that case.
		if strings.TrimSpace(clean) == "" {
			return back.Text == ""
		}
		return back.Text == clean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseEmptyDocument(t *testing.T) {
	if _, err := Parse(nil); !errors.Is(err, ErrSyntax) {
		t.Errorf("Parse(nil) err = %v, want ErrSyntax", err)
	}
	if _, err := Parse([]byte("  <!-- only a comment -->  ")); !errors.Is(err, ErrSyntax) {
		t.Errorf("comment-only err = %v, want ErrSyntax", err)
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindStart: "start", KindEnd: "end", KindText: "text",
		KindEOF: "eof", Kind(0): "invalid",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
