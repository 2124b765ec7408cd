package iostack

import (
	"seqstream/internal/controller"
	"seqstream/internal/disk"
)

// Options tweak the standard configurations.
type Options struct {
	// DiskConfig overrides the per-drive configuration. When nil, the
	// WD800JD profile is used with per-disk seeds.
	DiskConfig func(seed uint64) disk.Config
	// ControllerConfig overrides the controller configuration. When
	// nil, the BC4810 profile is used.
	ControllerConfig func() controller.Config
	// CPU overrides the host CPU model. Zero value uses DefaultCPU.
	CPU *CPUModel
}

func (o Options) diskConfig(seed uint64) disk.Config {
	if o.DiskConfig != nil {
		return o.DiskConfig(seed)
	}
	return disk.ProfileWD800JD(seed)
}

func (o Options) controllerConfig() controller.Config {
	if o.ControllerConfig != nil {
		return o.ControllerConfig()
	}
	return controller.ProfileBC4810()
}

func (o Options) cpu() CPUModel {
	if o.CPU != nil {
		return *o.CPU
	}
	return DefaultCPU()
}

// build assembles a configuration of nctrl controllers with
// disksPerCtrl drives each.
func build(nctrl, disksPerCtrl int, opts Options) Config {
	cfg := Config{CPU: opts.cpu()}
	seed := uint64(1)
	for c := 0; c < nctrl; c++ {
		spec := ControllerSpec{Controller: opts.controllerConfig()}
		for d := 0; d < disksPerCtrl; d++ {
			spec.Disks = append(spec.Disks, opts.diskConfig(seed))
			seed++
		}
		cfg.Controllers = append(cfg.Controllers, spec)
	}
	return cfg
}

// BaseConfig is the paper's base simulation configuration: a single
// controller with a single drive (§3).
func BaseConfig(opts Options) Config { return build(1, 1, opts) }

// LargeConfig is the large configuration: sixteen controllers hosting
// four drives each (§3); the Fig. 1 sweep uses 60 of the 64 drives.
func LargeConfig(opts Options) Config { return build(16, 4, opts) }

// Testbed8Config matches the §5.3 experiments where a single
// controller hosts all eight drives.
func Testbed8Config(opts Options) Config { return build(1, 8, opts) }
