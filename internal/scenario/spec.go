package scenario

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/fault"
	"samrdlb/internal/workload"
)

// Check is the set of debug oracles armed for a run — the check= key
// and samrsim's -check flag. The ledger, data and plan oracles compare
// the engine's incremental structures against full recomputations and
// panic on divergence; invariants is the paper-invariant oracle.
type Check uint8

// The low three bits are the engine's oracles (engine.CheckLedger,
// CheckData and CheckPlan), bit for bit, in checkNames order;
// invariants is the scenario's own.
const (
	CheckData       = Check(engine.CheckData)
	CheckPlan       = Check(engine.CheckPlan)
	CheckInvariants = CheckPlan << 1
)

var checkNames = []string{"ledger", "data", "plan", "invariants"}

func (c Check) String() string {
	var on []string
	for i, name := range checkNames {
		if c&(1<<i) != 0 {
			on = append(on, name)
		}
	}
	return strings.Join(on, ",")
}

func parseCheck(v string) (c Check, err error) {
	for _, name := range strings.Split(v, ",") {
		if i := slices.Index(checkNames, name); i >= 0 {
			c |= 1 << i
		} else if name != "" {
			return 0, fmt.Errorf("unknown oracle %q (%s)", name, strings.Join(checkNames, " | "))
		}
	}
	return c, nil
}

// key is one row of the spec table, which is the Scenario struct itself:
// a field's `key` tag names it in the replay string, `flag` is the
// samrsim flag that sets the same field (`usage` its help text), and
// `perrun` marks what a resumed or re-hosted run may change without
// becoming a different run — every other key is part of the identity a
// checkpoint is stamped with. Encode, Parse, RegisterFlags and Identity
// all walk this table; a key is named nowhere else.
type key struct {
	name, flag, usage string
	perRun            bool
	field             int
}

var keys = func() (ks []key) {
	t := reflect.TypeOf(Scenario{})
	for i := 0; i < t.NumField(); i++ {
		if tag := t.Field(i).Tag; tag.Get("key") != "" {
			ks = append(ks, key{tag.Get("key"), tag.Get("flag"), tag.Get("usage"), tag.Get("perrun") != "", i})
		}
	}
	return ks
}()

func (k *key) of(s *Scenario) any { return reflect.ValueOf(s).Elem().Field(k.field).Addr().Interface() }

// get appends the field's value to b — nothing, to leave the key out
// of the encoding. set reads what get printed.
func (k *key) get(b []byte, s *Scenario) []byte {
	switch p := k.of(s).(type) {
	case *int:
		return strconv.AppendInt(b, int64(*p), 10)
	case *int64:
		return strconv.AppendInt(b, *p, 10)
	case *float64:
		return strconv.AppendFloat(b, *p, 'g', -1, 64) // the shortest form that reads back exactly
	case *bool:
		return strconv.AppendBool(b, *p)
	case *Check:
		return append(b, p.String()...)
	case *[]GroupDef:
		for i, g := range *p {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(append(strconv.AppendInt(b, int64(g.Procs), 10), 'x'), g.Perf, 'g', -1, 64)
		}
		return b
	case *[]fault.Event:
		return append(b, encodeFaults(*p)...)
	case *string:
		return append(b, *p...)
	}
	panic("scenario: key " + k.name + " tags a field of a type the codec does not know")
}

func (k *key) set(s *Scenario, v string) (err error) {
	switch p := k.of(s).(type) {
	case *int:
		*p, err = strconv.Atoi(v)
	case *int64:
		*p, err = strconv.ParseInt(v, 10, 64)
	case *float64:
		*p, err = strconv.ParseFloat(v, 64)
	case *bool:
		*p, err = strconv.ParseBool(v)
	case *Check:
		*p, err = parseCheck(v)
	case *[]GroupDef:
		*p, err = parseGroups(v)
	case *[]fault.Event:
		*p, err = parseFaults(v)
	case *string:
		*p = v
	}
	return err
}

// Default is the run samrsim performs when no run flag is given, and
// what a replay string overrides key by key.
func Default() Scenario {
	return Scenario{
		Seed: 42, Dataset: "ShockPool3D", DomainN: 32, MaxLevel: 2, Scheme: "distributed",
		Testbed: "wan", TestbedN: 4, Steps: 10, ResumeCut: -1,
	}
}

func (s *Scenario) encode(identity bool) string {
	b := make([]byte, 0, 320) // one allocation for a typical spec
	for i := range keys {
		k := &keys[i]
		if identity && k.perRun {
			continue
		}
		head := len(b)
		b = append(append(append(b, ' '), k.name...), '=')
		mark := len(b)
		if b = k.get(b, s); len(b) == mark {
			b = b[:head] // no value: the key stays out
		}
	}
	return strings.TrimPrefix(string(b), " ")
}

// Encode renders the scenario as the replay string consumed by Parse
// and `samrsim -scenario`.
func (s *Scenario) Encode() string { return s.encode(false) }

// Identity renders the keys that determine the run's Result. The engine
// stamps it into every durable generation and refuses to resume one
// that a different run wrote; steps, cut, transport and check stay out,
// because a resumed, re-hosted or re-checked run is still the same run.
func (s *Scenario) Identity() string { return s.encode(true) }

// Parse decodes a replay string: Default() overridden by each key=value
// token (a spec that describes its machine by groups= drops the default
// testbed). Unknown keys, and whatever Validate rejects, are an error:
// a typo never replays another run.
func Parse(in string) (Scenario, error) {
	s := Default()
	s.Testbed = ""
	for _, tok := range strings.Fields(in) {
		name, v, ok := strings.Cut(tok, "=")
		i := slices.IndexFunc(keys, func(k key) bool { return k.name == name })
		if !ok || i < 0 {
			return s, fmt.Errorf("scenario.Parse: %q is not key=value with a known key", tok)
		}
		if err := keys[i].set(&s, v); err != nil {
			return s, fmt.Errorf("scenario.Parse: %s=%q: %w", name, v, err)
		}
	}
	if s.Testbed == "" && len(s.Groups) == 0 {
		s.Testbed = Default().Testbed
	}
	return s, s.Validate()
}

// RegisterFlags registers samrsim's run flags — one per table row that
// names a flag — and returns the spec they fill in, which starts as
// Default().
func RegisterFlags(fs *flag.FlagSet) *Scenario {
	s := Default()
	names := strings.NewReplacer(
		"{datasets}", strings.Join(workload.Names(), " | "),
		"{policies}", strings.Join(dlb.PolicyNames(), " | "))
	for i := range keys {
		k := &keys[i]
		if k.flag == "" {
			continue
		}
		usage := names.Replace(k.usage)
		if d := string(k.get(nil, &s)); d != "" && d != "0" && d != "false" {
			usage += " (default " + d + ")"
		}
		set := func(v string) error { return k.set(&s, v) }
		if k.flag == "faults" { // the flag names a script file, the key carries the events
			set = func(path string) error {
				file, err := os.Open(path)
				if err != nil {
					return err
				}
				defer file.Close()
				s.Faults, err = fault.ParseScript(file)
				return err
			}
		}
		if _, isBool := k.of(&s).(*bool); isBool {
			fs.BoolFunc(k.flag, usage, set)
		} else {
			fs.Func(k.flag, usage, set)
		}
	}
	return &s
}

// IsRunFlag reports whether RegisterFlags registers a flag of this name.
func IsRunFlag(name string) bool {
	return slices.ContainsFunc(keys, func(k key) bool { return k.flag == name })
}

// Validate rejects the specs the constructors would panic on or the
// engine would refuse, naming the flag (the key, where there is no
// flag). Unlike Normalize it never rewrites: what a human typed runs as
// written or not at all.
func (s *Scenario) Validate() error {
	_, policy := dlb.CanonicalPolicy(s.Scheme)
	switch {
	case !slices.Contains(workload.Names(), s.Dataset):
		return fmt.Errorf("-dataset %q: not one of %s", s.Dataset, strings.Join(workload.Names(), " | "))
	case !policy:
		return fmt.Errorf("-policy %q: not one of %s, nor an alias", s.Scheme, strings.Join(dlb.PolicyNames(), " | "))
	case !slices.Contains([]string{"", "wan", "lan", "origin"}, s.Testbed):
		return fmt.Errorf("-system %q: not one of wan | lan | origin", s.Testbed)
	case s.Transport != "" && s.Transport != engine.TransportTCP:
		return fmt.Errorf("-transport %q: not tcp, nor empty for the shared-memory data path", s.Transport)
	case s.InjectBug != "" && s.InjectBug != "colocation":
		return fmt.Errorf("bug=%q: the only seeded defect is colocation", s.InjectBug)
	case s.DomainN < 1:
		return fmt.Errorf("-domain %d: the level-0 domain needs at least one cell per side", s.DomainN)
	case s.MaxLevel < 0:
		return fmt.Errorf("-maxlevel %d: the deepest level cannot be negative", s.MaxLevel)
	case (s.Testbed == "") == (len(s.Groups) == 0):
		return fmt.Errorf("-system %q with %d groups: the machine is one of the testbeds or a groups= list, not both", s.Testbed, len(s.Groups))
	case s.Testbed != "" && s.TestbedN < 1:
		return fmt.Errorf("-n %d: a group needs at least one processor", s.TestbedN)
	case s.Transport != "" && !s.WithData:
		return fmt.Errorf("-transport %s requires -data (rank messages carry field data)", s.Transport)
	case s.Steps < 1:
		return fmt.Errorf("-steps %d: a run needs at least one step", s.Steps)
	case s.ResumeCut >= s.Steps:
		return fmt.Errorf("cut=%d: the cut must leave a step to resume (steps=%d)", s.ResumeCut, s.Steps)
	case !(s.Gamma >= 0 && s.Eps >= 0):
		return fmt.Errorf("-gamma %g, eps=%g: a threshold cannot be negative", s.Gamma, s.Eps)
	}
	for _, g := range s.Groups {
		if g.Procs < 1 || !(g.Perf > 0) {
			return fmt.Errorf("groups=%dx%g: a group needs at least one processor and a positive speed", g.Procs, g.Perf)
		}
	}
	opt, err := s.EngineOptions(nil)
	if err == nil && opt.Faults != nil {
		sys := s.System()
		err = opt.Faults.Validate(sys.NumProcs(), sys.NumGroups())
	}
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	return nil
}

// Groups travel as PROCSxPERF,...
func parseGroups(v string) (out []GroupDef, err error) {
	for _, part := range strings.Split(v, ",") {
		p, perf, _ := strings.Cut(part, "x")
		procs, err1 := strconv.Atoi(p)
		pf, err2 := strconv.ParseFloat(perf, 64)
		if err := errors.Join(err1, err2); err != nil {
			return nil, fmt.Errorf("group %q not PROCSxPERF: %w", part, err)
		}
		out = append(out, GroupDef{Procs: procs, Perf: pf})
	}
	return out, nil
}

// Fault events travel in the script format of internal/fault, one event
// per '/' with ':' for the spaces: proc-fail:proc=1:at=0.2/...
func encodeFaults(events []fault.Event) string {
	return strings.NewReplacer(" ", ":", "\n", "/").Replace(strings.TrimSpace(fault.FormatScript(events)))
}

func parseFaults(v string) ([]fault.Event, error) {
	return fault.ParseScript(strings.NewReader(strings.NewReplacer(":", " ", "/", "\n").Replace(v)))
}
