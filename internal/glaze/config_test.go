package glaze

import (
	"reflect"
	"testing"
)

func TestNewConfigOptions(t *testing.T) {
	cfg := NewConfig(
		WithMesh(2, 1),
		WithAtomicity(HardAtomicity),
		WithFrames(8),
		WithMachineSeed(42),
		WithOutputWords(64),
	)
	if cfg.W != 2 || cfg.H != 1 {
		t.Errorf("mesh = %dx%d, want 2x1", cfg.W, cfg.H)
	}
	if cfg.Cost.Impl != HardAtomicity {
		t.Errorf("atomicity = %v, want hard", cfg.Cost.Impl)
	}
	if cfg.FramesPerNode != 8 {
		t.Errorf("frames = %d, want 8", cfg.FramesPerNode)
	}
	if cfg.Seed != 42 {
		t.Errorf("seed = %d, want 42", cfg.Seed)
	}
	if cfg.NIConfig.OutputWords != 64 {
		t.Errorf("output words = %d, want 64", cfg.NIConfig.OutputWords)
	}
}

func TestNewConfigDefaultsUntouched(t *testing.T) {
	if !reflect.DeepEqual(NewConfig(), DefaultConfig()) {
		t.Error("NewConfig() with no options should equal DefaultConfig()")
	}
}

func TestNewMachineAppliesOptions(t *testing.T) {
	m := NewMachine(DefaultConfig(), WithMesh(2, 1), WithAtomicity(KernelMode))
	if len(m.Nodes) != 2 {
		t.Errorf("nodes = %d, want 2", len(m.Nodes))
	}
	if m.Cost().Impl != KernelMode {
		t.Errorf("cost impl = %v, want kernel", m.Cost().Impl)
	}
}
