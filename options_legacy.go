package pinbcast

// Older spellings of options, kept while the benchmark harness
// (cmd/bdload) calls them; nothing else may.

// WithClusterFiles is WithFiles.
//
// Deprecated: use WithFiles.
func WithClusterFiles(files ...FileSpec) Option { return WithFiles(files...) }

// WithClusterContents is WithContents.
//
// Deprecated: use WithContents.
func WithClusterContents(contents map[string][]byte) Option { return WithContents(contents) }

// WithClusterBandwidth is WithBandwidth.
//
// Deprecated: use WithBandwidth.
func WithClusterBandwidth(b int) Option { return WithBandwidth(b) }

// WithStationOptions applies opts as NewCluster applies each of them.
//
// Deprecated: pass the options to NewCluster itself.
func WithStationOptions(opts ...Option) ClusterOption {
	return clusterOption(func(c *clusterConfig) error {
		for _, opt := range opts {
			if err := opt(&c.stationConfig); err != nil {
				return err
			}
		}
		return nil
	})
}

// WithTunerDirectory is WithDirectory.
//
// Deprecated: use WithDirectory.
func WithTunerDirectory(names map[uint32]string) ListenerOption { return WithDirectory(names) }
