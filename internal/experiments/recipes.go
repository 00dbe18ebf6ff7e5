package experiments

// The recipe registry names the experiment builders a repro bundle (or a
// snapshot image) can re-run without out-of-band knowledge: a recipe is
// (name, JSON parameter blob, seed) → one deterministic world, executed
// to completion. The obs hook is announced to the world exactly as the
// sweep runners do it, which is where a replay attaches its tracer and
// checkpoint.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// recipeFn runs one recipe world to completion. params is the recipe's
// JSON parameter blob (nil selects the recipe's defaults); obs is
// announced to the world right after construction.
type recipeFn func(params json.RawMessage, seed uint64, obs observeFn) error

// decodeParams unmarshals params into dst (which arrives holding the
// recipe's defaults), rejecting unknown fields so a typo'd bundle fails
// loudly instead of silently running the default.
func decodeParams(params json.RawMessage, dst any) error {
	if len(params) == 0 {
		return nil
	}
	dec := json.NewDecoder(strings.NewReader(string(params)))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// recipes is the registry. Every entry must be deterministic in (params,
// seed): same inputs, same trace digest — that determinism is what a
// repro bundle verifies.
var recipes = map[string]recipeFn{
	"fig5": func(params json.RawMessage, seed uint64, obs observeFn) error {
		p := struct {
			SizesMB []int `json:"sizes_mb"`
			Reps    int   `json:"reps"`
		}{SizesMB: []int{128, 256}, Reps: 2}
		if err := decodeParams(params, &p); err != nil {
			return err
		}
		_, err := fig5Attach(obs, seed, p.SizesMB, p.Reps)
		return err
	},
	"fig7": func(params json.RawMessage, seed uint64, obs observeFn) error {
		p := struct {
			Size string `json:"size"`
		}{Size: "2MB"}
		if err := decodeParams(params, &p); err != nil {
			return err
		}
		bytes, ok := map[string]uint64{"4KB": 4 << 10, "2MB": 2 << 20, "1GB": 1 << 30}[p.Size]
		if !ok {
			return fmt.Errorf("fig7 recipe: unknown size %q (have 4KB, 2MB, 1GB)", p.Size)
		}
		_, err := fig7Phase(obs, seed, p.Size, bytes)
		return err
	},
	"table2": func(params json.RawMessage, seed uint64, obs observeFn) error {
		p := struct {
			Pairing string `json:"pairing"`
			Reps    int    `json:"reps"`
		}{Pairing: "kitten-to-linux", Reps: 2}
		if err := decodeParams(params, &p); err != nil {
			return err
		}
		const bytes = 1 << 30
		var err error
		switch p.Pairing {
		case "kitten-to-linux":
			_, err = table2KittenToLinux(obs, seed, bytes, p.Reps)
		case "kitten-to-vm":
			_, err = table2KittenToVM(obs, seed, bytes, p.Reps)
		case "vm-to-kitten":
			_, err = table2VMToKitten(obs, seed, bytes, p.Reps)
		default:
			return fmt.Errorf("table2 recipe: unknown pairing %q", p.Pairing)
		}
		return err
	},
	"fig9": func(params json.RawMessage, seed uint64, obs observeFn) error {
		p := struct {
			Nodes     int  `json:"nodes"`
			Multi     bool `json:"multi_enclave"`
			Recurring bool `json:"recurring"`
		}{Nodes: 2, Multi: true, Recurring: true}
		if err := decodeParams(params, &p); err != nil {
			return err
		}
		_, err := fig9Run(obs, seed, p.Nodes, p.Multi, p.Recurring)
		return err
	},
	"fig6point": func(params json.RawMessage, seed uint64, obs observeFn) error {
		p := struct {
			Enclaves int `json:"enclaves"`
			SizeMB   int `json:"size_mb"`
			Reps     int `json:"reps"`
		}{Enclaves: 2, SizeMB: 128, Reps: 2}
		if err := decodeParams(params, &p); err != nil {
			return err
		}
		_, _, _, err := fig6Point(obs, seed, p.Enclaves, p.SizeMB, p.Reps)
		return err
	},
	"fig8": func(params json.RawMessage, seed uint64, obs observeFn) error {
		p := struct {
			Config    string `json:"config"`
			Sync      bool   `json:"sync"`
			Recurring bool   `json:"recurring"`
		}{Config: string(KittenLinux), Sync: true}
		if err := decodeParams(params, &p); err != nil {
			return err
		}
		cfg := Fig8Config(p.Config)
		valid := false
		for _, c := range Fig8Configs {
			valid = valid || c == cfg
		}
		if !valid {
			return fmt.Errorf("fig8 recipe: unknown config %q", p.Config)
		}
		_, err := fig8Run(obs, seed, cfg, p.Sync, p.Recurring)
		return err
	},
	"fault": func(params json.RawMessage, seed uint64, obs observeFn) error {
		p := struct {
			Drop   float64 `json:"drop"`
			Crash  bool    `json:"crash"`
			Rounds int     `json:"rounds"`
		}{Drop: 0.05, Rounds: 20}
		if err := decodeParams(params, &p); err != nil {
			return err
		}
		_, err := faultRun(obs, seed, p.Drop, p.Crash, p.Rounds)
		return err
	},
	"cluster": func(params json.RawMessage, seed uint64, obs observeFn) error {
		p := struct {
			Nodes  int  `json:"nodes"`
			Shards int  `json:"shards"`
			Churn  bool `json:"churn"`
			Rounds int  `json:"rounds"`
		}{Nodes: 4, Shards: 2, Rounds: 24}
		if err := decodeParams(params, &p); err != nil {
			return err
		}
		_, err := clusterRun(obs, seed, p.Nodes, p.Shards, p.Churn, p.Rounds)
		return err
	},
}

// RecipeNames lists the registered recipe names, sorted, for usage text.
func RecipeNames() string {
	names := make([]string, 0, len(recipes))
	for n := range recipes {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
