package mip6mcast

import (
	"fmt"
	"strings"

	"mip6mcast/internal/exp"
	"mip6mcast/internal/mld"
	"mip6mcast/internal/scenario"
)

// This file holds the parameter helpers the experiments share and the
// single registration list. Each experiment is declared next to its
// measure code; the order here is the canonical "run all" order.

func init() {
	for _, e := range []*exp.Experiment{
		expF1, expF2, expF3, expF4, expT1,
		expS44, expS431, expS432,
		expSMG, expSLD, expSMTU,
		expChaos, expScale,
	} {
		exp.Register(e)
	}
}

// paramEngine is the multicast-engine selector shared by the comparison
// sweeps. The default keeps every existing golden trace byte-identical.
func paramEngine() exp.Param {
	return exp.Param{
		Name: "engine", Desc: "multicast engine: " + strings.Join(scenario.EngineNames(), " or "),
		Kind: exp.String, Default: "pimdm",
	}
}

// paramApproach is the receive-approach selector shared by the sweeps
// that can run any registered approach. The description lists the
// registry's canonical names, so `mip6sim -list` always shows what a
// build actually accepts (RegisterApproach additions included).
func paramApproach(def string) exp.Param {
	return exp.Param{
		Name: "approach", Desc: "approach: " + strings.Join(ApproachNames(), ", ") + " (or alias local/tunnel/proxy)",
		Kind: exp.String, Default: def,
	}
}

// applyApproach resolves the approach parameter against the core
// registry; unknown names panic with the registered set.
func applyApproach(p exp.Params) Approach {
	name := p.Str("approach")
	a, ok := ApproachByName(name)
	if !ok {
		panic(fmt.Sprintf("unknown approach %q (registered: %v)", name, ApproachNames()))
	}
	return a
}

// applyEngine validates the engine parameter against the scenario
// registry and selects it in the build options.
func applyEngine(opt Options, p exp.Params) Options {
	name := p.Str("engine")
	found := false
	for _, n := range scenario.EngineNames() {
		if n == name {
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("unknown multicast engine %q (registered: %v)", name, scenario.EngineNames()))
	}
	opt.Engine = name
	return opt
}

// paramTQuery is the shared MLD-tuning knob of the extension studies,
// which need fast timers to finish in a bounded horizon. 0 inherits the
// base options untouched.
func paramTQuery() exp.Param {
	return exp.Param{
		Name: "tquery", Desc: "MLD query interval override (s); 0 inherits base options",
		Kind: exp.Int, Default: 30,
	}
}

// applyTQuery retunes MLD (router and host in lockstep) when the tquery
// parameter asks for it.
func applyTQuery(opt Options, p exp.Params) Options {
	if tq := p.Int("tquery"); tq > 0 {
		return opt.WithMLD(mld.FastConfig(secs(tq)))
	}
	return opt
}

// paramTraceDir is the seed-replay trace directory shared by the chaos and
// scale sweeps.
func paramTraceDir() exp.Param {
	return exp.Param{
		Name: "tracedir", Desc: "write each timeline's JSONL trace under this directory for seed replay; empty disables",
		Kind: exp.String, Default: "",
	}
}
