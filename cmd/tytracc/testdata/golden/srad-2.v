// Generated by the TyTra back-end compiler from module "srad".
// Kernel HDL for integration with an HLS base platform (see Fig 16).

// ---- TyTra primitive cores ----

// Offset window: buffers DEPTH elements of a stream and exposes the
// whole window; taps select stencil neighbours (Fig 13's offset
// buffers). AHEAD is the number of elements the controller runs ahead
// of the datapath wave.
module tytra_offset_window #(
    parameter WIDTH = 18,
    parameter DEPTH = 4
) (
    input  wire             clk,
    input  wire             rst,
    input  wire             en,
    input  wire [WIDTH-1:0] din,
    output wire [DEPTH*WIDTH-1:0] window
);
    reg [WIDTH-1:0] buf_r [0:DEPTH-1];
    integer i;
    always @(posedge clk) begin
        if (rst) begin
            for (i = 0; i < DEPTH; i = i + 1) buf_r[i] <= {WIDTH{1'b0}};
        end else if (en) begin
            buf_r[0] <= din;
            for (i = 1; i < DEPTH; i = i + 1) buf_r[i] <= buf_r[i-1];
        end
    end
    genvar k;
    generate
        for (k = 0; k < DEPTH; k = k + 1) begin : taps
            assign window[(k+1)*WIDTH-1:k*WIDTH] = buf_r[k];
        end
    endgenerate
endmodule

// Behavioural integer square root (one result per cycle after fill).
module tytra_isqrt #(
    parameter WIDTH = 18
) (
    input  wire [WIDTH-1:0] a,
    output wire [WIDTH-1:0] q
);
    function [WIDTH-1:0] isqrt_f;
        input [WIDTH-1:0] v;
        reg [WIDTH-1:0] x, b;
        begin
            x = 0;
            b = 1 << (WIDTH - 2);
            while (b != 0) begin
                if (v >= x + b) begin
                    v = v - (x + b);
                    x = (x >> 1) + b;
                end else begin
                    x = x >> 1;
                end
                b = b >> 2;
            end
            isqrt_f = x;
        end
    endfunction
    assign q = isqrt_f(a);
endmodule

// Datapath of @f0: pipeline depth 15.
module tytra_f0_dp (
    input  wire clk,
    input  wire rst,
    input  wire in_valid,
    input  wire [23:0] in_img,
    output wire [23:0] out_img_new,
    input  wire [23:0] in_jn,
    input  wire [23:0] in_js,
    input  wire [23:0] in_je,
    input  wire [23:0] in_jw,
    output reg  [23:0] acc_cSum,
    output wire out_valid
);
    reg [14:0] valid_r;
    always @(posedge clk) begin
        if (rst) valid_r <= 0;
        else valid_r <= {valid_r[13:0], in_valid};
    end
    assign out_valid = valid_r[14];

    // balancing delay line for 16 (7 stages)
    reg [23:0] v16_dly1;
    always @(posedge clk) v16_dly1 <= v16;
    reg [23:0] v16_dly2;
    always @(posedge clk) v16_dly2 <= v16_dly1;
    reg [23:0] v16_dly3;
    always @(posedge clk) v16_dly3 <= v16_dly2;
    reg [23:0] v16_dly4;
    always @(posedge clk) v16_dly4 <= v16_dly3;
    reg [23:0] v16_dly5;
    always @(posedge clk) v16_dly5 <= v16_dly4;
    reg [23:0] v16_dly6;
    always @(posedge clk) v16_dly6 <= v16_dly5;
    reg [23:0] v16_dly7;
    always @(posedge clk) v16_dly7 <= v16_dly6;
    // balancing delay line for 17 (1 stages)
    reg [23:0] v17_dly1;
    always @(posedge clk) v17_dly1 <= v17;
    // balancing delay line for 19 (1 stages)
    reg [23:0] v19_dly1;
    always @(posedge clk) v19_dly1 <= v19;
    // balancing delay line for cmax (10 stages)
    reg [23:0] cmax_dly1;
    always @(posedge clk) cmax_dly1 <= cmax;
    reg [23:0] cmax_dly2;
    always @(posedge clk) cmax_dly2 <= cmax_dly1;
    reg [23:0] cmax_dly3;
    always @(posedge clk) cmax_dly3 <= cmax_dly2;
    reg [23:0] cmax_dly4;
    always @(posedge clk) cmax_dly4 <= cmax_dly3;
    reg [23:0] cmax_dly5;
    always @(posedge clk) cmax_dly5 <= cmax_dly4;
    reg [23:0] cmax_dly6;
    always @(posedge clk) cmax_dly6 <= cmax_dly5;
    reg [23:0] cmax_dly7;
    always @(posedge clk) cmax_dly7 <= cmax_dly6;
    reg [23:0] cmax_dly8;
    always @(posedge clk) cmax_dly8 <= cmax_dly7;
    reg [23:0] cmax_dly9;
    always @(posedge clk) cmax_dly9 <= cmax_dly8;
    reg [23:0] cmax_dly10;
    always @(posedge clk) cmax_dly10 <= cmax_dly9;
    // balancing delay line for img (14 stages)
    reg [23:0] img_dly1;
    always @(posedge clk) img_dly1 <= in_img;
    reg [23:0] img_dly2;
    always @(posedge clk) img_dly2 <= img_dly1;
    reg [23:0] img_dly3;
    always @(posedge clk) img_dly3 <= img_dly2;
    reg [23:0] img_dly4;
    always @(posedge clk) img_dly4 <= img_dly3;
    reg [23:0] img_dly5;
    always @(posedge clk) img_dly5 <= img_dly4;
    reg [23:0] img_dly6;
    always @(posedge clk) img_dly6 <= img_dly5;
    reg [23:0] img_dly7;
    always @(posedge clk) img_dly7 <= img_dly6;
    reg [23:0] img_dly8;
    always @(posedge clk) img_dly8 <= img_dly7;
    reg [23:0] img_dly9;
    always @(posedge clk) img_dly9 <= img_dly8;
    reg [23:0] img_dly10;
    always @(posedge clk) img_dly10 <= img_dly9;
    reg [23:0] img_dly11;
    always @(posedge clk) img_dly11 <= img_dly10;
    reg [23:0] img_dly12;
    always @(posedge clk) img_dly12 <= img_dly11;
    reg [23:0] img_dly13;
    always @(posedge clk) img_dly13 <= img_dly12;
    reg [23:0] img_dly14;
    always @(posedge clk) img_dly14 <= img_dly13;
    // balancing delay line for kappa (7 stages)
    reg [23:0] kappa_dly1;
    always @(posedge clk) kappa_dly1 <= kappa;
    reg [23:0] kappa_dly2;
    always @(posedge clk) kappa_dly2 <= kappa_dly1;
    reg [23:0] kappa_dly3;
    always @(posedge clk) kappa_dly3 <= kappa_dly2;
    reg [23:0] kappa_dly4;
    always @(posedge clk) kappa_dly4 <= kappa_dly3;
    reg [23:0] kappa_dly5;
    always @(posedge clk) kappa_dly5 <= kappa_dly4;
    reg [23:0] kappa_dly6;
    always @(posedge clk) kappa_dly6 <= kappa_dly5;
    reg [23:0] kappa_dly7;
    always @(posedge clk) kappa_dly7 <= kappa_dly6;
    // balancing delay line for zero (8 stages)
    reg [23:0] zero_dly1;
    always @(posedge clk) zero_dly1 <= zero;
    reg [23:0] zero_dly2;
    always @(posedge clk) zero_dly2 <= zero_dly1;
    reg [23:0] zero_dly3;
    always @(posedge clk) zero_dly3 <= zero_dly2;
    reg [23:0] zero_dly4;
    always @(posedge clk) zero_dly4 <= zero_dly3;
    reg [23:0] zero_dly5;
    always @(posedge clk) zero_dly5 <= zero_dly4;
    reg [23:0] zero_dly6;
    always @(posedge clk) zero_dly6 <= zero_dly5;
    reg [23:0] zero_dly7;
    always @(posedge clk) zero_dly7 <= zero_dly6;
    reg [23:0] zero_dly8;
    always @(posedge clk) zero_dly8 <= zero_dly7;
    wire [23:0] v1_c = in_jn - in_img;
    reg [23:0] v1;
    always @(posedge clk) v1 <= v1_c;
    wire [23:0] v2_c = in_js - in_img;
    reg [23:0] v2;
    always @(posedge clk) v2 <= v2_c;
    wire [23:0] v3_c = in_je - in_img;
    reg [23:0] v3;
    always @(posedge clk) v3 <= v3_c;
    wire [23:0] v4_c = in_jw - in_img;
    reg [23:0] v4;
    always @(posedge clk) v4 <= v4_c;
    wire [23:0] v5_c = v1 * v1;
    reg [23:0] v5_p1;
    always @(posedge clk) v5_p1 <= v5_c;
    reg [23:0] v5;
    always @(posedge clk) v5 <= v5_p1;
    wire [23:0] v6_c = v2 * v2;
    reg [23:0] v6_p1;
    always @(posedge clk) v6_p1 <= v6_c;
    reg [23:0] v6;
    always @(posedge clk) v6 <= v6_p1;
    wire [23:0] v7_c = v5 + v6;
    reg [23:0] v7;
    always @(posedge clk) v7 <= v7_c;
    wire [23:0] v8_c = v3 * v3;
    reg [23:0] v8_p1;
    always @(posedge clk) v8_p1 <= v8_c;
    reg [23:0] v8;
    always @(posedge clk) v8 <= v8_p1;
    wire [23:0] v9_c = v4 * v4;
    reg [23:0] v9_p1;
    always @(posedge clk) v9_p1 <= v9_c;
    reg [23:0] v9;
    always @(posedge clk) v9 <= v9_p1;
    wire [23:0] v10_c = v8 + v9;
    reg [23:0] v10;
    always @(posedge clk) v10 <= v10_c;
    wire [23:0] v11_c = v7 + v10;
    reg [23:0] v11;
    always @(posedge clk) v11 <= v11_c;
    wire [23:0] v12_c = v11 >> 8;
    reg [23:0] v12;
    always @(posedge clk) v12 <= v12_c;
    wire [23:0] v13_c = v1 + v2;
    reg [23:0] v13;
    always @(posedge clk) v13 <= v13_c;
    wire [23:0] v14_c = v3 + v4;
    reg [23:0] v14;
    always @(posedge clk) v14 <= v14_c;
    wire [23:0] v15_c = v13 + v14;
    reg [23:0] v15;
    always @(posedge clk) v15 <= v15_c;
    wire [23:0] v16_c = v15 >> 2;
    reg [23:0] v16;
    always @(posedge clk) v16 <= v16_c;
    wire [23:0] kappa = 65536; // const
    wire [23:0] zero = 0; // const
    wire [23:0] cmax = 16384; // const
    wire [23:0] v17_c = kappa_dly6 - v12;
    reg [23:0] v17;
    always @(posedge clk) v17 <= v17_c;
    wire [0:0] v18_c = v17 > kappa_dly7;
    reg [0:0] v18;
    always @(posedge clk) v18 <= v18_c;
    wire [23:0] v19_c = v18 ? zero_dly8 : v17_dly1;
    reg [23:0] v19;
    always @(posedge clk) v19 <= v19_c;
    wire [0:0] v20_c = v19 > cmax_dly9;
    reg [0:0] v20;
    always @(posedge clk) v20 <= v20_c;
    wire [23:0] v21_c = v20 ? cmax_dly10 : v19_dly1;
    reg [23:0] v21;
    always @(posedge clk) v21 <= v21_c;
    wire [23:0] v22_c = v21 * v16_dly7;
    reg [23:0] v22_p1;
    always @(posedge clk) v22_p1 <= v22_c;
    reg [23:0] v22;
    always @(posedge clk) v22 <= v22_p1;
    wire [23:0] v23_c = v22 >> 10;
    reg [23:0] v23;
    always @(posedge clk) v23 <= v23_c;
    wire [23:0] v24_c = img_dly14 + v23;
    reg [23:0] v24;
    always @(posedge clk) v24 <= v24_c;
    assign out_img_new = v24;
    // reduction into @cSum
    always @(posedge clk) begin
        if (rst) acc_cSum <= 0;
        else if (valid_r[10]) acc_cSum <= v21 + acc_cSum;
    end
endmodule

// Stream controller of @f0: offset windows and wave alignment.
module tytra_f0_sc (
    input  wire clk,
    input  wire rst,
    input  wire in_valid,
    input  wire [23:0] s_in_img,
    output wire [23:0] s_out_img_new,
    output wire out_valid
);
    wire [11015:0] win_img;
    tytra_offset_window #(.WIDTH(24), .DEPTH(459)) u_win_img (
        .clk(clk), .rst(rst), .en(in_valid), .din(s_in_img), .window(win_img));
    tytra_f0_dp u_dp (
        .clk(clk), .rst(rst), .in_valid(in_valid),
        .in_img(win_img[229*24 +: 24]),
        .out_img_new(s_out_img_new),
        .in_jn(win_img[458*24 +: 24]),
        .in_js(win_img[0*24 +: 24]),
        .in_je(win_img[228*24 +: 24]),
        .in_jw(win_img[230*24 +: 24]),
        .out_valid(out_valid));
endmodule

// Top: kernel boundary of module "srad" for HLS integration.
module tytra_top_srad (
    input  wire clk,
    input  wire rst,
    input  wire in_valid,
    input  wire [23:0] p_in_main_img0,
    output wire [23:0] p_out_main_img_new0,
    input  wire [23:0] p_in_main_img1,
    output wire [23:0] p_out_main_img_new1,
    output wire out_valid
);
    wire lane_valid_0;
    tytra_f0_sc u_lane_0 (.clk(clk), .rst(rst), .in_valid(in_valid), .s_in_img(p_in_main_img0), .s_out_img_new(p_out_main_img_new0), .out_valid(lane_valid_0));
    wire lane_valid_1;
    tytra_f0_sc u_lane_1 (.clk(clk), .rst(rst), .in_valid(in_valid), .s_in_img(p_in_main_img1), .s_out_img_new(p_out_main_img_new1), .out_valid(lane_valid_1));
    assign out_valid = lane_valid_0 & lane_valid_1;
endmodule
