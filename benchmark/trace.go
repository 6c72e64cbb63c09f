package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Harness-side spans: one around every call the harness makes into a layer.
// They live in memory during the run and are written, merged with each
// daemon's GET /trace dump, as one Chrome trace-event file per workload.
// Spans inside the program are a later issue; these are recorded from the
// benchmark's own files only.

type spanKind uint8

const (
	spanPush   spanKind = iota + 1 // client.PushBatch of frame req
	spanAck                        // Ping -> Pong wait after frame req
	spanSigma                      // frame req: due -> watermark reached at a subscriber
	spanSample                     // client.Sample call number req
	spanProbe                      // one in-process probe repetition
)

var spanNames = map[spanKind]string{
	spanPush:   "client.PushBatch",
	spanAck:    "ack wait",
	spanSigma:  "sigma receive",
	spanSample: "client.Sample",
	spanProbe:  "probe",
}

type span struct {
	kind       spanKind
	req        uint64 // request identifier: frame or call number
	start, end int64  // unix nanos
	label      string // probe name
}

// maxSpans bounds one goroutine's log; a 10 s traced window stays far below.
const maxSpans = 1 << 18

// spanLog is one goroutine's span buffer. A nil log (untraced runs) records
// nothing, so the untraced hot loops pay one nil check.
type spanLog struct {
	track string
	spans []span
}

func newSpanLog(on bool, track string) *spanLog {
	if !on {
		return nil
	}
	return &spanLog{track: track, spans: make([]span, 0, 1<<14)}
}

func (l *spanLog) add(k spanKind, req uint64, start, end time.Time) {
	if l == nil || len(l.spans) >= maxSpans {
		return
	}
	l.spans = append(l.spans, span{kind: k, req: req, start: start.UnixNano(), end: end.UnixNano()})
}

func (l *spanLog) addProbe(name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{kind: spanProbe, start: start.UnixNano(), end: end.UnixNano(), label: name})
}

// spanID is stable per (kind, request), so a child can name its parent
// without the two goroutines sharing anything.
func spanID(k spanKind, req uint64) uint64 { return uint64(k)<<56 | req&(1<<56-1) }

// traceEvent is one Chrome trace-event "complete" event, the same shape
// unsd's GET /trace emits.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace merges the harness logs (pid 0, one track per goroutine) with
// each daemon's span ring (pid 1+i) into out/trace-<workload>.json.
func writeTrace(dir, workload string, logs []*spanLog, daemonDumps [][]byte) (string, error) {
	var events []traceEvent
	for tid, l := range logs {
		if l == nil {
			continue
		}
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: uint64(tid),
			Args: map[string]any{"name": l.track},
		})
		for _, s := range l.spans {
			name := spanNames[s.kind]
			args := map[string]any{
				"span_id":    strconv.FormatUint(spanID(s.kind, s.req), 10),
				"request_id": strconv.FormatUint(s.req, 10),
			}
			switch s.kind {
			case spanAck, spanSigma: // caused by the push of the same frame
				args["parent_span_id"] = strconv.FormatUint(spanID(spanPush, s.req), 10)
			case spanProbe:
				name = "probe " + s.label
			}
			events = append(events, traceEvent{
				Name: name, Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 0, Tid: uint64(tid), Args: args,
			})
		}
	}
	for i, dump := range daemonDumps {
		var d struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(dump, &d); err != nil {
			return "", fmt.Errorf("daemon %d /trace: %w", i, err)
		}
		for _, e := range d.TraceEvents {
			e.Pid = 1 + i
			events = append(events, e)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": events})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
