package mmv2v

import (
	"io"

	"mmv2v/internal/trace"
)

// Tracing: set ScenarioConfig.Trace to a Recorder to receive structured
// protocol events (discoveries, matches, break-ups, stream starts, rate
// changes, completions, PBSS associations). A nil recorder disables tracing
// at zero cost.

// TraceEvent is one recorded protocol occurrence.
type TraceEvent = trace.Event

// TraceKind classifies trace events.
type TraceKind = trace.Kind

// Trace event kinds.
const (
	TraceDiscovery   = trace.KindDiscovery
	TraceMatch       = trace.KindMatch
	TraceBreakup     = trace.KindBreakup
	TraceStreamStart = trace.KindStreamStart
	TraceRate        = trace.KindRate
	TraceCompletion  = trace.KindCompletion
	TraceAssociation = trace.KindAssociation
)

// TraceRecorder fans protocol events out to sinks.
type TraceRecorder = trace.Recorder

// TraceSink consumes trace events.
type TraceSink = trace.Sink

// TraceRing is an in-memory most-recent-events sink.
type TraceRing = trace.Ring

// NewTraceRecorder builds a recorder over sinks.
func NewTraceRecorder(sinks ...TraceSink) *TraceRecorder { return trace.New(sinks...) }

// NewTraceRing builds a fixed-capacity in-memory sink.
func NewTraceRing(capacity int) *TraceRing { return trace.NewRing(capacity) }

// NewTraceJSONL builds a sink writing one JSON object per event.
func NewTraceJSONL(w io.Writer) *trace.JSONL { return trace.NewJSONL(w) }
