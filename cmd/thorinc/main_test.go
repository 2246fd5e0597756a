package main

import (
	"encoding/json"
	"flag"
	"io"
	"strings"
	"testing"

	"thorin/internal/driver"
)

// TestFlagsResolveLikeDaemonRequests: a thorinc flag set and the daemon
// request a client would send for it resolve to the same spec, schedule,
// target, link mode, failure policy, budget and deadline, because both go
// through driver.Request.Resolve.
func TestFlagsResolveLikeDaemonRequests(t *testing.T) {
	const src = "fn main(n: i64) -> i64 { n }"
	cases := []struct {
		flags []string
		wire  string
	}{
		{nil, `{}`},
		{[]string{"-O", "0"}, `{"opt": 0}`},
		{[]string{"-O", "1", "-schedule", "early"}, `{"opt": 1, "schedule": "early"}`},
		{[]string{"-O", "0", "-passes", "cleanup,fix(cff),cleanup,closure"}, `{"spec": "cleanup,fix(cff),cleanup,closure"}`},
		{[]string{"-target=wasm", "-schedule=late"}, `{"target": "wasm", "schedule": "late"}`},
		{[]string{"-link=mangle"}, `{"link": "mangle"}`},
		{[]string{"-on-failure=degrade", "-budget", "iters=8,nodes=200000"},
			`{"on_failure": "degrade", "budget": "iters=8,nodes=200000"}`},
		{[]string{"-deadline", "250ms", "-incremental=off"}, `{"deadline_ms": 250, "disable_incremental": true}`},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("thorinc", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := newFlags(fs)
		if err := fs.Parse(tc.flags); err != nil {
			t.Fatal(err)
		}
		cliReq, err := f.request()
		if err != nil {
			t.Fatal(err)
		}
		cliReq.Source = src
		cli, err := cliReq.Resolve("")
		if err != nil {
			t.Fatalf("%v: %v", tc.flags, err)
		}
		var wireReq driver.Request
		if err := json.Unmarshal([]byte(tc.wire), &wireReq); err != nil {
			t.Fatal(err)
		}
		wireReq.Source = src
		wire, err := wireReq.Resolve("")
		if err != nil {
			t.Fatalf("%s: %v", tc.wire, err)
		}

		// -jobs defaults to GOMAXPROCS and the daemon to its own default;
		// neither changes the output, so jobs is not compared.
		cli.Config.Jobs, wire.Config.Jobs = 0, 0
		if cli.Spec != wire.Spec || cli.Mode != wire.Mode || cli.Link != wire.Link ||
			cli.Config != wire.Config || cli.Deadline != wire.Deadline {
			t.Errorf("%v resolves to\n  %+v\nbut daemon request %s resolves to\n  %+v", tc.flags, cli, tc.wire, wire)
		}
	}
}

// TestFlagsRejectBadValues: flag values the daemon would reject fail in
// process too, instead of falling back to a default.
func TestFlagsRejectBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-O", "3"},
		{"-schedule", "sideways"},
		{"-target", "jvm"},
		{"-link", "glue"},
		{"-on-failure", "shrug"},
		{"-budget", "nodes=-3"},
		{"-passes", "nosuchpass"},
	} {
		fs := flag.NewFlagSet("thorinc", flag.ContinueOnError)
		f := newFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		req, err := f.request()
		if err != nil {
			t.Fatal(err)
		}
		req.Source = "fn main(n: i64) -> i64 { n }"
		if _, err := req.Resolve(""); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestVerifyEachRejectedWithServer: a daemon request cannot carry
// -verify-each, so the combination is an error instead of a compile that
// silently skips the per-pass verification.
func TestVerifyEachRejectedWithServer(t *testing.T) {
	fs := flag.NewFlagSet("thorinc", flag.ContinueOnError)
	f := newFlags(fs)
	if err := fs.Parse([]string{"-verify-each", "-server", "127.0.0.1:7491"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.request(); err == nil || !strings.Contains(err.Error(), "-verify-each") {
		t.Errorf("request() = %v, want an error naming -verify-each", err)
	}
}
