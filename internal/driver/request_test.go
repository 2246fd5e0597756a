package driver

import (
	"bytes"
	"context"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/transform"
)

const requestSrc = `
fn fib(n: i64) -> i64 { if n < 2 { n } else { fib(n - 1) + fib(n - 2) } }
fn main(n: i64) -> i64 { fib(n) }
`

func intp(n int) *int { return &n }

// compileRequest resolves req and compiles it without a deadline.
func compileRequest(req *Request) (*Result, error) {
	r, err := req.Resolve("")
	if err != nil {
		return nil, err
	}
	return Compile(context.Background(), r)
}

// TestRequestDefaults: the zero request compiles like a plain
// `thorinc file.imp` — full -O2 spec, smart schedule, fail-fast.
func TestRequestDefaults(t *testing.T) {
	req := &Request{Source: requestSrc}
	r, err := req.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if r.Spec != transform.O2 {
		t.Errorf("default spec %q, want %q", r.Spec, transform.O2)
	}
	if r.Mode != analysis.ScheduleSmart {
		t.Errorf("default schedule %v, want smart", r.Mode)
	}
	if r.Config.OnPassFailure != FailFast {
		t.Error("default policy is not FailFast")
	}

	res, err := Compile(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ExecSteps(res.Program, nil, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Errorf("fib(10) = %d, want 55", got)
	}
}

// TestRequestValidation: malformed knobs are rejected with errors, not
// silently defaulted.
func TestRequestValidation(t *testing.T) {
	for _, bad := range []Request{
		{},
		{Source: requestSrc, Sources: []string{requestSrc}},
		{Source: requestSrc, Opt: intp(7)},
		{Source: requestSrc, Schedule: "sideways"},
		{Source: requestSrc, Target: "jvm"},
		{Source: requestSrc, Link: "glue"},
		{Source: requestSrc, OnFailure: "shrug"},
		{Source: requestSrc, Budget: "nodes=-3"},
	} {
		if _, err := bad.Resolve(""); err == nil {
			t.Errorf("request %+v accepted", bad)
		}
	}
}

// TestArtifactRoundTrip: encode → decode reproduces a runnable program,
// and version mismatches are rejected.
func TestArtifactRoundTrip(t *testing.T) {
	req := &Request{Source: requestSrc, Opt: intp(2)}
	res, err := compileRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	art := NewArtifact(res, res.Spec, "smart")
	data, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ExecSteps(back.Program, nil, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got != 144 {
		t.Errorf("decoded program: fib(12) = %d, want 144", got)
	}

	bad := bytes.Replace(data, []byte(Version), []byte("thorin-go/0"), 1)
	if _, err := DecodeArtifact(bad); err == nil {
		t.Error("artifact with wrong version accepted")
	}
}

// TestArtifactDeterministic: the encoded artifact is byte-identical across
// jobs levels and with incremental rewriting on or off — the property the
// compile server's cache keying relies on to exclude those knobs from the
// key.
func TestArtifactDeterministic(t *testing.T) {
	var ref []byte
	for _, cfg := range []Request{
		{Source: requestSrc, Jobs: 1},
		{Source: requestSrc, Jobs: 4},
		{Source: requestSrc, Jobs: 4, DisableIncremental: true},
	} {
		req := cfg
		res, err := compileRequest(&req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := NewArtifact(res, res.Spec, "smart").Encode()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = data
		} else if !bytes.Equal(ref, data) {
			t.Errorf("artifact bytes differ for config %+v", cfg)
		}
	}
}
