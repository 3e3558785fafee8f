"""Paper-reported values, used to check reproduction *shape* in the
"Headline shape checks" section of :mod:`repro.evaluation.report`.

Only values stated in the paper's text/tables are recorded. Figures 9-11 are
bar charts whose exact values are hard to read; where the text states
averages we record those.
"""

# Headline averages (Abstract / Sec. VI-B)
SPEEDUP_OVER = {
    "pyg-cpu": 15286.0,
    "pyg-gpu": 294.0,
    "dgl-cpu": 1057.0,
    "dgl-gpu": 460.0,
    "hygcn": 7.8,
    "awb-gcn": 2.5,
    "deepburning-zc706": 2532.0,
    "deepburning-kcu1500": 165.0,
    "deepburning-alveo-u50": 115.0,
}

SPEEDUP_OVER_8BIT = {
    "pyg-cpu": 32158.0,
    "pyg-gpu": 607.0,
    "dgl-cpu": 2213.0,
    "dgl-gpu": 962.0,
}

# Tab. VI: speedups over PyG-CPU (GCN)
TABLE_VI = {
    "awb-gcn": {"cora": 1063, "citeseer": 913, "pubmed": 466, "nell": 1425,
                "reddit": 9242},
    "gcod-accel": {"cora": 1824, "citeseer": 1692, "pubmed": 901,
                   "nell": 2294, "reddit": 39881},
    "gcod-accel-sp": {"cora": 2031, "citeseer": 1763, "pubmed": 970,
                      "nell": 2459, "reddit": 44827},
    "gcod-accel-sp-quant": {"cora": 4373, "citeseer": 3459, "pubmed": 1931,
                            "nell": 4915, "reddit": 90301},
}

# Fig. 11a: GCoD needs on average 48% (26% for 8-bit) of HyGCN's bandwidth
BANDWIDTH_VS_HYGCN = {"gcod": 0.48, "gcod-8bit": 0.26}

# Sec. VI-C ablation: across C in {1..4}, S in {8..20}
ABLATION_BANDWIDTH_REDUCTION = (0.26, 0.53)

# Sec. IV-B2: training cost accounting
TRAINING_COST_RANGE = (0.7, 1.1)
TRAINING_STEP_FRACTIONS = (0.05, 0.50, 0.45)

# Sec. I: sparser workload keeps ~30% of non-zeros on Cora
CORA_SPARSE_NNZ_FRACTION = 0.30

# Tab. VI text: sparsification contributes ~1.09x, 8-bit ~2.02x on average
SPARSIFICATION_GAIN = 1.09
QUANTIZATION_GAIN = 2.02
