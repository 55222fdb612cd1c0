package slogx

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestNewJSONRecords(t *testing.T) {
	var buf bytes.Buffer
	l, err := New(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("request", "path", "/v1/optimize", "status", 200)
	l.Debug("suppressed") // below level
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d records, want 1: %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("record is not JSON: %v\n%s", err, lines[0])
	}
	if rec["msg"] != "request" || rec["path"] != "/v1/optimize" {
		t.Fatalf("unexpected record %v", rec)
	}
}

func TestNewTextFormat(t *testing.T) {
	var buf bytes.Buffer
	l, err := New(&buf, "debug", "text")
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("shed", "pending", 7)
	if out := buf.String(); !strings.Contains(out, "msg=shed") || !strings.Contains(out, "pending=7") {
		t.Fatalf("unexpected text record %q", out)
	}
}

func TestNewDefaults(t *testing.T) {
	var buf bytes.Buffer
	l, err := New(&buf, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if l.Enabled(nil, slog.LevelDebug) {
		t.Fatal("default level admits debug")
	}
	l.Info("x")
	if !json.Valid([]byte(strings.TrimSpace(buf.String()))) {
		t.Fatalf("default format is not JSON: %q", buf.String())
	}
}

func TestNewRejectsUnknown(t *testing.T) {
	if _, err := New(nil, "loud", "json"); err == nil {
		t.Fatal("unknown level accepted")
	}
	if _, err := New(nil, "info", "xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}
