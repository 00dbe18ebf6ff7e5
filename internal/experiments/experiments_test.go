package experiments

// Shape tests: each experiment must reproduce the qualitative result the
// paper reports — who wins, by roughly what factor, where crossovers fall.
// Repetition counts are reduced (the simulator is deterministic, so
// repetitions only average injected noise); the full counts run in the
// benchmark harness.

import (
	"testing"
)

func TestFig5Shape(t *testing.T) {
	res, err := fig5Grid(1, 25).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Attach ≈ 13 GB/s, flat across sizes.
		if row.AttachGBs < 11 || row.AttachGBs > 15 {
			t.Errorf("%d MB attach = %.2f GB/s, want ≈13", row.SizeMB, row.AttachGBs)
		}
		// Attach+read just below attach.
		if row.AttachReadGBs >= row.AttachGBs {
			t.Errorf("%d MB attach+read %.2f not below attach %.2f", row.SizeMB, row.AttachReadGBs, row.AttachGBs)
		}
		if row.AttachReadGBs < 10.5 {
			t.Errorf("%d MB attach+read = %.2f GB/s, want ≈12", row.SizeMB, row.AttachReadGBs)
		}
		// RDMA ≈ 3.4 GB/s: shared memory wins by ≈4x.
		if row.RDMAGBs < 2.8 || row.RDMAGBs > 4 {
			t.Errorf("%d MB rdma = %.2f GB/s, want ≈3.4", row.SizeMB, row.RDMAGBs)
		}
		if row.AttachGBs < 3*row.RDMAGBs {
			t.Errorf("%d MB: attach %.2f not ≈4x RDMA %.2f", row.SizeMB, row.AttachGBs, row.RDMAGBs)
		}
	}
	// Flat in size: extremes within 5%.
	lo, hi := res.Rows[0].AttachGBs, res.Rows[len(res.Rows)-1].AttachGBs
	if hi < lo*0.95 || hi > lo*1.05 {
		t.Errorf("attach not flat in size: %.2f vs %.2f", lo, hi)
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := fig6Grid(1, 40).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, szMB := range []int{128, 256, 512, 1024} {
		one := res.cell(1, szMB)
		two := res.cell(2, szMB)
		four := res.cell(4, szMB)
		eight := res.cell(8, szMB)
		// A slight dip from 1 to 2 enclaves (§5.3)...
		if two >= one {
			t.Errorf("%d MB: no 1→2 dip (%.2f → %.2f)", szMB, one, two)
		}
		if two < 0.8*one {
			t.Errorf("%d MB: dip too deep (%.2f → %.2f)", szMB, one, two)
		}
		// ...then good scaling beyond 2: within 5% of the 2-enclave rate.
		for _, v := range []float64{four, eight} {
			if v < two*0.95 || v > two*1.05 {
				t.Errorf("%d MB: scaling beyond 2 not flat: 2=%.2f, got %.2f", szMB, two, v)
			}
		}
	}
	// The IPI funnel really concentrates on core 0: busier with more
	// enclaves.
	if res.Core0Busy[8] <= res.Core0Busy[1] {
		t.Errorf("core-0 busy did not grow with enclaves: %v vs %v", res.Core0Busy[8], res.Core0Busy[1])
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := Table2(1, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	native, vmAttach, vmExport := res.Rows[0], res.Rows[1], res.Rows[2]
	// Native ≈ 13 GB/s.
	if native.GBs < 11 || native.GBs > 15 {
		t.Errorf("native = %.2f GB/s", native.GBs)
	}
	// Guest attachment ≈ 3x slower than native (paper: 12.8 vs 3.99).
	ratio := native.GBs / vmAttach.GBs
	if ratio < 2.4 || ratio > 4 {
		t.Errorf("VM attach slowdown = %.2fx, want ≈3x (%.2f vs %.2f)", ratio, native.GBs, vmAttach.GBs)
	}
	// Removing rb-tree insert time roughly doubles it (3.99 → 8.79).
	if vmAttach.NoRBTreeGBs < 1.8*vmAttach.GBs || vmAttach.NoRBTreeGBs > 3*vmAttach.GBs {
		t.Errorf("w/o rb-tree = %.2f, want ≈2.2x of %.2f", vmAttach.NoRBTreeGBs, vmAttach.GBs)
	}
	// The rb-tree updates dominate: ≥60% of the difference (paper: ~80%).
	// Guest-export direction stays near native (12.6).
	if vmExport.GBs < 0.9*native.GBs || vmExport.GBs > 1.05*native.GBs {
		t.Errorf("guest-export = %.2f, want ≈native %.2f", vmExport.GBs, native.GBs)
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := fig7Grid(1, 0).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("phases = %d", len(res.Phases))
	}
	for _, p := range res.Phases {
		base := p.Class("hw-baseline")
		smi := p.Class("smi")
		att := p.Class("xemem-attach")
		if base.Count < 3000 {
			t.Errorf("%s: baseline count = %d", p.Size, base.Count)
		}
		if base.AvgUS < 9 || base.AvgUS > 16 {
			t.Errorf("%s: baseline avg = %.1f us, want ≈12", p.Size, base.AvgUS)
		}
		if smi.Count < 5 || smi.AvgUS < 100 || smi.AvgUS > 250 {
			t.Errorf("%s: smi profile off: %+v", p.Size, smi)
		}
		if att.Count != 10 {
			t.Errorf("%s: attach detours = %d, want 10", p.Size, att.Count)
		}
		switch p.Size {
		case "4KB":
			// Indistinguishable from the baseline band.
			if att.AvgUS > 2.5*base.AvgUS {
				t.Errorf("4KB attach detours (%.1f us) should hide in the baseline (%.1f us)", att.AvgUS, base.AvgUS)
			}
		case "2MB":
			// Noticeable, but below the SMI band.
			if att.AvgUS <= base.AvgUS || att.AvgUS >= smi.AvgUS {
				t.Errorf("2MB attach detours (%.1f us) not between baseline (%.1f) and SMIs (%.1f)", att.AvgUS, base.AvgUS, smi.AvgUS)
			}
		case "1GB":
			// Two orders of magnitude above everything else: ≈23 ms.
			if att.AvgUS < 15000 || att.AvgUS > 40000 {
				t.Errorf("1GB attach detours = %.1f us, want ≈23000", att.AvgUS)
			}
			if att.AvgUS < 50*smi.AvgUS {
				t.Errorf("1GB detours (%.1f us) not 2 orders above SMIs (%.1f us)", att.AvgUS, smi.AvgUS)
			}
		}
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("composed benchmark sweep")
	}
	res, err := fig8Grid(1, 4).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, recurring := range []bool{false, true} {
		// Sync is slower than async for every configuration.
		for _, cfg := range Fig8Configs {
			s, as := res.Cell(cfg, true, recurring), res.Cell(cfg, false, recurring)
			if s.MeanS <= as.MeanS {
				t.Errorf("rec=%v %s: sync %.1f not slower than async %.1f", recurring, cfg, s.MeanS, as.MeanS)
			}
			// All runs land in the paper's 135–165 s band.
			if s.MeanS < 135 || s.MeanS > 165 {
				t.Errorf("rec=%v %s sync = %.1f s outside the paper's band", recurring, cfg, s.MeanS)
			}
		}
		// Kitten/Linux wins under both execution models.
		for _, sync := range []bool{true, false} {
			best := res.Cell(KittenLinux, sync, recurring).MeanS
			for _, cfg := range Fig8Configs {
				if cfg == KittenLinux {
					continue
				}
				if res.Cell(cfg, sync, recurring).MeanS < best {
					t.Errorf("rec=%v sync=%v: %s beat Kitten/Linux", recurring, sync, cfg)
				}
			}
		}
		// Async: every Kitten-simulation configuration beats Linux-only.
		lo := res.Cell(LinuxLinux, false, recurring).MeanS
		for _, cfg := range []Fig8Config{KittenLinux, KittenVMOnLx, KittenVMOnKt} {
			if res.Cell(cfg, false, recurring).MeanS >= lo {
				t.Errorf("rec=%v async: %s (%.1f) not faster than Linux-only (%.1f)",
					recurring, cfg, res.Cell(cfg, false, recurring).MeanS, lo)
			}
		}
		// Multi-enclave configurations are more consistent than Linux-only.
		loStd := res.Cell(LinuxLinux, true, recurring).StdS
		for _, cfg := range []Fig8Config{KittenLinux, KittenVMOnLx, KittenVMOnKt} {
			if res.Cell(cfg, true, recurring).StdS >= loStd {
				t.Errorf("rec=%v: %s variance (%.2f) not below Linux-only (%.2f)",
					recurring, cfg, res.Cell(cfg, true, recurring).StdS, loStd)
			}
		}
	}
	// Sync: native analytics beats virtualized, Palacios-on-Linux worst
	// of the VM pair (§6.4).
	for _, recurring := range []bool{false, true} {
		kl := res.Cell(KittenLinux, true, recurring).MeanS
		lh := res.Cell(KittenVMOnLx, true, recurring).MeanS
		kh := res.Cell(KittenVMOnKt, true, recurring).MeanS
		if !(kl < kh && kh < lh) {
			t.Errorf("rec=%v sync VM ordering: native %.1f, kitten-host %.1f, linux-host %.1f", recurring, kl, kh, lh)
		}
	}
	// Recurring+sync is the worst case for the virtualized enclaves.
	for _, cfg := range []Fig8Config{KittenVMOnLx, KittenVMOnKt} {
		if res.Cell(cfg, true, true).MeanS <= res.Cell(cfg, true, false).MeanS {
			t.Errorf("%s: recurring sync not worse than one-time sync", cfg)
		}
	}
	// Linux-only also suffers in the recurring model, with more variance.
	if res.Cell(LinuxLinux, true, true).MeanS <= res.Cell(LinuxLinux, true, false).MeanS {
		t.Error("Linux-only recurring sync not worse than one-time")
	}
	// One bar run on its own reports exactly the figure's bar.
	bar, err := fig8Bar(1, KittenLinux, true, false, 4).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Cell(KittenLinux, true, false); bar != want {
		t.Errorf("fig8Bar = %+v, Fig8 bar = %+v", bar, want)
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node sweep")
	}
	res, err := fig9Grid(1, 3).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, recurring := range []bool{false, true} {
		// Multi-enclave scales flat: ≤2% growth 1→8 nodes.
		m1 := res.Cell(1, true, recurring).MeanS
		m8 := res.Cell(8, true, recurring).MeanS
		if m8 > m1*1.02 {
			t.Errorf("rec=%v: multi-enclave grew %.1f → %.1f", recurring, m1, m8)
		}
		// Linux-only degrades steadily: ≥7% growth 1→8 nodes.
		l1 := res.Cell(1, false, recurring).MeanS
		l8 := res.Cell(8, false, recurring).MeanS
		if l8 < l1*1.07 {
			t.Errorf("rec=%v: Linux-only did not degrade (%.1f → %.1f)", recurring, l1, l8)
		}
		// At 8 nodes the multi-enclave configuration clearly wins.
		if m8 >= l8 {
			t.Errorf("rec=%v: multi-enclave (%.1f) not faster at 8 nodes (%.1f)", recurring, m8, l8)
		}
		// Everything stays inside the paper's 42–54 s band.
		for _, c := range res.Cells {
			if c.Recurring == recurring && (c.MeanS < 41 || c.MeanS > 55) {
				t.Errorf("cell %+v outside band", c)
			}
		}
	}
	// Linux-only is competitive at a single node (the §7.2 observation:
	// in the recurring model it outperforms; we require parity within
	// noise).
	l1 := res.Cell(1, false, true)
	m1 := res.Cell(1, true, true)
	if l1.MeanS > m1.MeanS+2*l1.StdS+1 {
		t.Errorf("recurring 1-node: Linux-only (%.1f±%.1f) far above multi-enclave (%.1f)", l1.MeanS, l1.StdS, m1.MeanS)
	}
}

// fastCount is the named artifact's fast count in the artifact table.
func fastCount(t *testing.T, name string) int {
	t.Helper()
	for _, a := range Artifacts() {
		if a.Name == name {
			return a.Fast
		}
	}
	t.Fatalf("no artifact %q", name)
	return 0
}
