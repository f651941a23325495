package diag

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestPosString(t *testing.T) {
	cases := []struct {
		p    Pos
		want string
	}{
		{Pos{}, ""},
		{Pos{File: "a.tirl"}, "a.tirl"},
		{Pos{Line: 3, Col: 7}, "3:7"},
		{Pos{File: "a.tirl", Line: 3, Col: 7}, "a.tirl:3:7"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("%+v: got %q, want %q", c.p, got, c.want)
		}
	}
}

func TestListCollectsAllFindings(t *testing.T) {
	var l List
	l.Errorf("TIR010", Pos{File: "m", Line: 2, Col: 1}, "first")
	l.Warnf("TIR044", Pos{File: "m", Line: 5, Col: 3}, "second")
	l.Errorf("TIR011", Pos{File: "m", Line: 1, Col: 9}, "third")

	if !l.HasErrors() {
		t.Fatal("list with errors reports clean")
	}
	errs := 0
	for _, d := range l {
		if d.Severity == Error {
			errs++
		}
	}
	if errs != 2 {
		t.Fatalf("the list holds %d error findings, want 2", errs)
	}
	msg := l.Error()
	for _, want := range []string{"first", "second", "third", "TIR010", "TIR044", "warning"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() output missing %q:\n%s", want, msg)
		}
	}
	if lines := strings.Count(msg, "\n") + 1; lines != 3 {
		t.Errorf("Error() rendered %d lines, want 3", lines)
	}
}

func TestSortIsPositional(t *testing.T) {
	l := List{
		New(Error, "TIR020", Pos{File: "m", Line: 5, Col: 1}, "later"),
		New(Error, "TIR010", Pos{File: "m", Line: 1, Col: 2}, "early"),
		New(Error, "TIR011", Pos{File: "m", Line: 1, Col: 2}, "same pos, higher code"),
	}
	l.Sort()
	if l[0].Msg != "early" || l[1].Code != "TIR011" || l[2].Msg != "later" {
		t.Errorf("sort order wrong: %v", l)
	}
}

func TestErrOrNil(t *testing.T) {
	var l List
	if err := l.ErrOrNil(); err != nil {
		t.Errorf("empty list yields error %v", err)
	}
	l.Warnf("TIR044", Pos{}, "only a warning")
	if err := l.ErrOrNil(); err != nil {
		t.Errorf("warnings-only list yields error %v", err)
	}
	l.Errorf("TIR010", Pos{}, "an error")
	if err := l.ErrOrNil(); err == nil {
		t.Error("list with errors yields nil")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := List{
		New(Error, "TIR010", Pos{File: "m.tirl", Line: 2, Col: 4}, "boom"),
		New(Warning, "TIR044", Pos{File: "m.tirl", Line: 9, Col: 1}, "meh"),
	}
	var b strings.Builder
	if err := l.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Diagnostics List `json:"diagnostics"`
		Errors      int  `json:"errors"`
		Warnings    int  `json:"warnings"`
	}
	if err := json.Unmarshal([]byte(b.String()), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, b.String())
	}
	if rep.Errors != 1 || rep.Warnings != 1 || len(rep.Diagnostics) != 2 {
		t.Errorf("summary wrong: %+v", rep)
	}
	if rep.Diagnostics[0] != l[0] || rep.Diagnostics[1] != l[1] {
		t.Errorf("diagnostics did not round-trip: %+v", rep.Diagnostics)
	}
}

func TestJSONEmptyListIsNotNull(t *testing.T) {
	var b strings.Builder
	if err := List(nil).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "null") {
		t.Errorf("empty list renders null: %s", b.String())
	}
}

func TestAsList(t *testing.T) {
	if got := AsList(nil, "X"); got != nil {
		t.Errorf("nil error gave %v", got)
	}
	d := New(Error, "TIR010", Pos{}, "single")
	if got := AsList(d, "X"); len(got) != 1 || got[0] != d {
		t.Errorf("single diagnostic gave %v", got)
	}
	l := List{d, New(Warning, "TIR044", Pos{}, "w")}
	if got := AsList(l, "X"); len(got) != 2 {
		t.Errorf("list gave %v", got)
	}
	plain := errors.New("ordinary failure")
	got := AsList(plain, "TIR000")
	if len(got) != 1 || got[0].Code != "TIR000" || got[0].Msg != "ordinary failure" {
		t.Errorf("plain error gave %v", got)
	}
}
