package tir

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestParserNeverPanics mutates valid source randomly: the parser and
// Analyze must always return (module, nil) or (nil, error) — never
// panic, whatever the corruption.
func TestParserNeverPanics(t *testing.T) {
	base := []byte(sorIR)
	f := func(pos uint16, b byte, cut uint8) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		src := make([]byte, len(base))
		copy(src, base)
		src[int(pos)%len(src)] = b
		// Occasionally truncate too.
		if cut%4 == 0 {
			src = src[:int(pos)%len(src)]
		}
		m, err := parseAnalyzed("mut", string(src))
		return (m == nil) != (err == nil)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLexerNeverPanics feeds arbitrary bytes through the full parse
// and analysis path.
func TestLexerNeverPanics(t *testing.T) {
	f := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		parseAnalyzed("junk", string(raw))
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestParserHandlesAdversarialSnippets covers corner inputs a mutation
// pass might not hit.
func TestParserHandlesAdversarialSnippets(t *testing.T) {
	snippets := []string{
		"",
		";",
		"; comment only\n",
		strings.Repeat("(", 1000),
		"define",
		"define void",
		"define void @main() {",
		"%x = ",
		"@p = addrSpace(",
		"define void @main() { call @f(",
		"\x00\x01\x02",
		"define void @main() { out ui8 }",
		"%m = memobj ui18, size 99999999999999999999, space global, pattern CONT",
	}
	for i, s := range snippets {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("snippet %d panicked: %v", i, r)
				}
			}()
			parseAnalyzed("adv", s)
		}()
	}
}
