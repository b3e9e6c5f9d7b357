package fault

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Event-script format: one event per line, `kind key=value ...`.
// Blank lines and lines starting with '#' are ignored. Keys:
//
//	between=a,b   group pair for link events
//	group=g       target of group-disconnect
//	proc=p        target of proc-slow / proc-fail
//	start=, end=  the window [start, end) in virtual seconds
//	at=           alias for start (proc-fail)
//	factor=       degrade / slowdown multiplier
//	prob=         probe-loss drop probability
//
// Example:
//
//	# WAN flap while group 1 is busy
//	probe-loss between=0,1 start=1 end=4 prob=0.8
//	link-outage between=0,1 start=5 end=9
//	proc-fail proc=3 at=10.5
//	# a bounded outage: proc 2 is down for [12, 20) and rejoins at 20
//	proc-fail proc=2 at=12 end=20
//	# explicit revival of a previously failed processor
//	proc-recover proc=3 at=25
//	# a disconnected group comes back
//	group-reconnect group=1 at=14
//	# chaos: SIGKILL group 1's worker process after it reports step 2
//	worker-kill group=1 at=2
//	# checkpoint writes in the window land torn (40% survives)
//	disk-torn-write start=2 end=6 factor=0.4

// ParseScript reads an event script. Errors name the offending line.
func ParseScript(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("fault script line %d: %w", lineNo, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fault script: %w", err)
	}
	return events, nil
}

// FormatScript renders events in the script format ParseScript reads.
func FormatScript(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteString("\n")
	}
	return b.String()
}

func parseLine(line string) (Event, error) {
	fields := strings.Fields(line)
	e := Event{Kind: -1}
	for k := range kinds {
		if kinds[k].name == fields[0] {
			e.Kind = Kind(k)
		}
	}
	if e.Kind < 0 {
		return e, fmt.Errorf("unknown event kind %q", fields[0])
	}
	takes := strings.Fields(kinds[e.Kind].keys)
	e.A, e.B, e.Group, e.Proc = -1, -1, -1, -1
	if e.Kind == LinkDegrade || e.Kind == ProcSlowdown {
		e.Factor = -1
	}
	for _, tok := range fields[1:] {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return e, fmt.Errorf("token %q is not key=value", tok)
		}
		// A key the kind ignores is a typo (factor= on a link-outage
		// meant link-degrade), not something to drop silently.
		if k != "start" && k != "at" && k != "end" && !slices.Contains(takes, k) {
			return e, fmt.Errorf("%s takes no key %q", e.Kind, k)
		}
		var err error
		switch k {
		case "between":
			as, bs, ok := strings.Cut(v, ",")
			if !ok {
				return e, fmt.Errorf("between=%q needs two groups a,b", v)
			}
			if e.A, err = strconv.Atoi(as); err == nil {
				e.B, err = strconv.Atoi(bs)
			}
		case "group":
			e.Group, err = strconv.Atoi(v)
		case "proc":
			e.Proc, err = strconv.Atoi(v)
		case "start", "at":
			e.Start, err = strconv.ParseFloat(v, 64)
		case "end":
			e.End, err = strconv.ParseFloat(v, 64)
		case "factor":
			e.Factor, err = strconv.ParseFloat(v, 64)
		case "prob":
			e.Prob, err = strconv.ParseFloat(v, 64)
		}
		if err != nil {
			return e, fmt.Errorf("bad value in %q: %v", tok, err)
		}
	}
	if e.Kind == ProcFailure && e.End == 0 {
		e.End = e.Start
	}
	if err := e.validate(); err != nil {
		return e, err
	}
	return e, nil
}
