// Package slogx is the one place the floorplan tools configure structured
// logging: a log/slog handler factory shared by all four CLIs (fpopt,
// fpgen, fpbench, fpserve) so -log-level and -log-format mean the same
// thing everywhere.
//
// The default output is single-line JSON records — one access-log record
// per served request is the serving layer's contract — with "text" as the
// human-friendly alternative for interactive runs.
package slogx

import (
	"fmt"
	"io"
	"log/slog"
)

// ParseLevel maps a -log-level flag value to a slog.Level. The empty
// string means Info.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("slogx: unknown log level %q (want debug, info, warn or error)", s)
}

// New builds a logger writing to w. format is "json" (the default; one
// structured record per line) or "text" (slog's key=value form); level is
// parsed by ParseLevel.
func New(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "", "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("slogx: unknown log format %q (want json or text)", format)
}
