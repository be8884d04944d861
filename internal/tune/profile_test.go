package tune

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleProfile() *Profile {
	return &Profile{
		Schema: Schema,
		GitSHA: "deadbeef", GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 1,
		Cells: []Entry{
			// Deliberately unsorted: Encode must canonicalize the order.
			{M: 1536, K: 512, N: 1536, Alg: "ours", Levels: 2, Schedule: "seq",
				NsPerOp: 90_000_000, GFLOPS: 26.8, DefaultPlan: "ours/L0/seq", DefaultNsPerOp: 110_000_000, BoundFactor: 3.1e6},
			{M: 768, K: 768, N: 3072, Alg: "laderman-alt", Levels: 1, Schedule: "seq",
				NsPerOp: 150_000_000, GFLOPS: 24.2, DefaultPlan: "ours/L0/seq", DefaultNsPerOp: 180_000_000, BoundFactor: 8.8e6},
		},
	}
}

// TestProfileRoundTrip pins that Encode is canonical: decode∘encode is
// the identity on canonical bytes, on-disk and in-memory alike, and
// cell order is normalized.
func TestProfileRoundTrip(t *testing.T) {
	p := sampleProfile()
	first, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(first)
	if err != nil {
		t.Fatalf("decoding our own encoding: %v", err)
	}
	second, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("encode∘decode not byte-stable:\n--- first\n%s\n--- second\n%s", first, second)
	}
	if q.Cells[0].M != 768 {
		t.Errorf("Encode did not sort cells by shape: first cell is %dx%dx%d", q.Cells[0].M, q.Cells[0].K, q.Cells[0].N)
	}
	if !bytes.HasSuffix(first, []byte("\n")) {
		t.Error("canonical encoding missing trailing newline")
	}

	// The file path round-trips to the same bytes.
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, first) {
		t.Error("WriteFile bytes differ from Encode bytes")
	}
	r, err := ReadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := r.Lookup(1536, 512, 1536); !ok || got.Alg != "ours" || got.Levels != 2 {
		t.Errorf("Lookup after round trip = %+v ok=%t", got, ok)
	}
}

// TestDecodeRejects pins the strict validator: every class of
// corruption is an explicit error, never a silently misread profile.
func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name, json, wantErr string
	}{
		{"malformed JSON", `{"schema": 1, "cells": [`, "decoding profile"},
		{"truncated", `{"schema": 1, "ce`, "decoding profile"},
		{"empty", ``, "decoding profile"},
		{"schema skew", `{"schema": 2, "cells": []}`, "schema 2"},
		{"schema missing", `{"cells": []}`, "schema 0"},
		{"zero shape", `{"schema": 1, "cells": [{"m":0,"k":8,"n":8,"alg":"ours","levels":0,"schedule":"seq"}]}`, "invalid shape"},
		{"negative levels", `{"schema": 1, "cells": [{"m":8,"k":8,"n":8,"alg":"ours","levels":-1,"schedule":"seq"}]}`, "invalid levels"},
		{"absurd levels", `{"schema": 1, "cells": [{"m":8,"k":8,"n":8,"alg":"ours","levels":21,"schedule":"seq"}]}`, "invalid levels"},
		{"empty alg", `{"schema": 1, "cells": [{"m":8,"k":8,"n":8,"alg":"","levels":0,"schedule":"seq"}]}`, "empty algorithm"},
		{"unknown schedule", `{"schema": 1, "cells": [{"m":8,"k":8,"n":8,"alg":"ours","levels":0,"schedule":"turbo"}]}`, "unknown schedule"},
		{"retired task", `{"schema": 1, "cells": [{"m":8,"k":8,"n":8,"alg":"ours","levels":0,"schedule":"task"}]}`, "unknown schedule"},
		{"retired seq-direct", `{"schema": 1, "cells": [{"m":8,"k":8,"n":8,"alg":"ours","levels":0,"schedule":"seq-direct"}]}`, "unknown schedule"},
		{"retired task-direct", `{"schema": 1, "cells": [{"m":8,"k":8,"n":8,"alg":"ours","levels":0,"schedule":"task-direct"}]}`, "unknown schedule"},
		{"negative workers", `{"schema": 1, "cells": [{"m":8,"k":8,"n":8,"alg":"ours","levels":0,"schedule":"seq","workers":-1}]}`, "negative workers"},
		{"negative measurement", `{"schema": 1, "cells": [{"m":8,"k":8,"n":8,"alg":"ours","levels":0,"schedule":"seq","ns_per_op":-5}]}`, "negative measurement"},
		{"duplicate cell", `{"schema": 1, "cells": [
			{"m":8,"k":8,"n":8,"alg":"ours","levels":0,"schedule":"seq"},
			{"m":8,"k":8,"n":8,"alg":"strassen","levels":1,"schedule":"seq"}]}`, "duplicate cell"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Decode([]byte(tc.json))
			if err == nil {
				t.Fatalf("Decode accepted %s: %+v", tc.name, p)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestLoadFileBadProfileLeavesTunerServing pins the serve-path
// contract: a corrupt, truncated, version-skewed, or missing profile
// file, or one naming a retired engine schedule, surfaces as a
// LoadFile error for the boot log, but the tuner stays fully
// serviceable — Choose answers "no opinion" for every shape (a
// plan-cache miss compiles the untuned default) and the profile-loaded
// gauge stays 0.
func TestLoadFileBadProfileLeavesTunerServing(t *testing.T) {
	dir := t.TempDir()
	bad := map[string]string{
		"corrupt.json":   `{"schema": 1, "cells": [{]}`,
		"truncated.json": `{"schema": 1, "cells": [{"m": 1536,`,
		"skewed.json":    `{"schema": 99, "cells": []}`,
		// A valid seq cell next to a retired-schedule one: the whole
		// file is refused, so neither shape is tuned.
		"retired.json": `{"schema": 1, "cells": [
			{"m":768,"k":768,"n":3072,"alg":"laderman-alt","levels":1,"schedule":"seq"},
			{"m":1536,"k":512,"n":1536,"alg":"ours","levels":2,"schedule":"task-direct"}]}`,
	}
	for name, body := range bad {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bad["missing.json"] = ""

	for name := range bad {
		t.Run(name, func(t *testing.T) {
			tn := New(Config{})
			if err := tn.LoadFile(filepath.Join(dir, name)); err == nil {
				t.Fatal("LoadFile accepted a bad profile")
			}
			for _, sh := range [][3]int{{1536, 512, 1536}, {768, 768, 3072}} {
				if _, ok := tn.Choose(nil, coreOptions(), sh[0], sh[1], sh[2]); ok {
					t.Errorf("Choose had an opinion on %v after a failed load", sh)
				}
			}
			var buf bytes.Buffer
			tn.WriteMetrics(&buf)
			for _, want := range []string{
				"abmm_tune_profile_loaded 0",
				"abmm_tune_profile_entries 0",
				`abmm_tune_decisions_total{source="default"} 2`,
			} {
				if !strings.Contains(buf.String(), want) {
					t.Errorf("metrics missing %q after failed load:\n%s", want, buf.String())
				}
			}
		})
	}
}

// FuzzProfileDecode fuzzes the strict decoder: it must never panic,
// and any input it accepts must re-encode canonically — the canonical
// form decodes again and re-encodes to identical bytes (a fixpoint).
func FuzzProfileDecode(f *testing.F) {
	canonical, err := sampleProfile().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canonical)
	f.Add([]byte(`{"schema": 1, "cells": []}`))
	f.Add([]byte(`{"schema": 2, "cells": []}`))
	f.Add([]byte(`{"schema": 1, "cells": [{"m":8,"k":8,"n":8,"alg":"ours","levels":0,"schedule":"seq"}]}`))
	f.Add([]byte(`{"schema": 1, "cells" [`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatalf("decoded profile failed to encode: %v", err)
		}
		q, err := Decode(enc)
		if err != nil {
			t.Fatalf("canonical encoding rejected by Decode: %v\n%s", err, enc)
		}
		enc2, err := q.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding not a fixpoint:\n--- first\n%s\n--- second\n%s", enc, enc2)
		}
	})
}

func TestGainPercent(t *testing.T) {
	cases := []struct {
		e    Entry
		want float64
	}{
		{Entry{NsPerOp: 75, DefaultNsPerOp: 100}, 25},
		{Entry{NsPerOp: 100, DefaultNsPerOp: 100}, 0}, // default won
		{Entry{NsPerOp: 120, DefaultNsPerOp: 100}, 0}, // slower never negative
		{Entry{NsPerOp: 75}, 0},                       // missing baseline
	}
	for _, tc := range cases {
		if got := tc.e.GainPercent(); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("GainPercent(%+v) = %g, want %g", tc.e, got, tc.want)
		}
	}
}
