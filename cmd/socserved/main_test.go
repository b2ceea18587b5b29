package main

import (
	"strings"
	"testing"
)

// TestParseConfig checks that parseConfig accepts one valid command line
// per mode and refuses every invalid flag value or combination, so a
// misconfigured daemon exits before it serves.
func TestParseConfig(t *testing.T) {
	// Spaces and trailing slashes are trimmed from -peers and -self alike.
	const peers = "http://127.0.0.1:18101, http://127.0.0.1:18102/"
	for _, args := range [][]string{
		{},
		{"-mode", "standalone", "-ckpt-dir", "ck", "-ckpt-sync", "none", "-policy-file", "p.bin", "-bootstrap"},
		{"-mode", "router", "-peers", peers, "-router-instance", "0", "-chaos-partition", "http://127.0.0.1:18101",
			"-fail-after", "2", "-max-inflight", "4", "-max-queue", "2", "-queue-wait", "50ms"},
		{"-mode", "backend", "-peers", peers, "-self", "http://127.0.0.1:18102/", "-replica-k", "1"},
	} {
		if _, err := parseConfig(args); err != nil {
			t.Errorf("parseConfig(%q) = %v, want a valid config", args, err)
		}
	}

	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown mode", []string{"-mode", "leader"}},
		{"router without peers", []string{"-mode", "router"}},
		{"backend without peers", []string{"-mode", "backend", "-self", "http://127.0.0.1:18101"}},
		{"backend without self", []string{"-mode", "backend", "-peers", peers}},
		{"backend self not a peer", []string{"-mode", "backend", "-peers", peers, "-self", "http://127.0.0.1:18103"}},
		{"zero max-sessions", []string{"-max-sessions", "0"}},
		{"negative max-sessions", []string{"-max-sessions", "-1"}},
		{"zero ckpt-interval", []string{"-ckpt-interval", "0"}},
		{"zero ckpt-interval with ckpt-dir", []string{"-ckpt-dir", "ck", "-ckpt-interval", "0"}},
		{"negative ckpt-interval", []string{"-ckpt-interval", "-1s"}},
		{"negative probe-interval", []string{"-probe-interval", "-1s"}},
		{"negative call-timeout", []string{"-call-timeout", "-1s"}},
		{"negative queue-wait", []string{"-queue-wait", "-1ms"}},
		{"negative fail-after", []string{"-fail-after", "-1"}},
		{"negative replica-k", []string{"-replica-k", "-1"}},
		{"negative max-inflight", []string{"-max-inflight", "-1"}},
		{"negative max-queue", []string{"-max-queue", "-1"}},
		{"bad ckpt-sync", []string{"-ckpt-sync", "sometimes"}},
	} {
		if _, err := parseConfig(tc.args); err == nil {
			t.Errorf("%s: parseConfig(%q) accepted it", tc.name, tc.args)
		}
	}

	for _, name := range []string{
		"-online", "-retries", "-retry-backoff", "-probe-timeout", "-replicate", "-replica-queue",
		"-ckpt-dirty", "-shards", "-chaos-seed", "-chaos-latency", "-chaos-latency-p",
		"-chaos-error-p", "-chaos-reset-p", "-chaos-torn-p",
	} {
		if _, err := parseConfig([]string{name + "=1"}); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("deleted flag %s: err = %v, want flag not defined", name, err)
		}
	}
}
