// Generated by the TyTra back-end compiler from module "lavamd".
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

// Datapath of @f0: pipeline depth 32.
module tytra_f0_dp (
    input  wire clk,
    input  wire rst,
    input  wire in_valid,
    input  wire [31:0] in_xi,
    input  wire [31:0] in_yi,
    input  wire [31:0] in_zi,
    input  wire [31:0] in_qi,
    input  wire [31:0] in_xj,
    input  wire [31:0] in_yj,
    input  wire [31:0] in_zj,
    input  wire [31:0] in_qj,
    output wire [31:0] out_pot,
    output wire [31:0] out_fx,
    output reg  [31:0] acc_potAcc,
    output wire out_valid
);
    reg [31:0] valid_r;
    always @(posedge clk) begin
        if (rst) valid_r <= 0;
        else valid_r <= {valid_r[30:0], in_valid};
    end
    assign out_valid = valid_r[31];

    // balancing delay line for 1 (28 stages)
    reg [31:0] v1_dly1;
    always @(posedge clk) v1_dly1 <= v1;
    reg [31:0] v1_dly2;
    always @(posedge clk) v1_dly2 <= v1_dly1;
    reg [31:0] v1_dly3;
    always @(posedge clk) v1_dly3 <= v1_dly2;
    reg [31:0] v1_dly4;
    always @(posedge clk) v1_dly4 <= v1_dly3;
    reg [31:0] v1_dly5;
    always @(posedge clk) v1_dly5 <= v1_dly4;
    reg [31:0] v1_dly6;
    always @(posedge clk) v1_dly6 <= v1_dly5;
    reg [31:0] v1_dly7;
    always @(posedge clk) v1_dly7 <= v1_dly6;
    reg [31:0] v1_dly8;
    always @(posedge clk) v1_dly8 <= v1_dly7;
    reg [31:0] v1_dly9;
    always @(posedge clk) v1_dly9 <= v1_dly8;
    reg [31:0] v1_dly10;
    always @(posedge clk) v1_dly10 <= v1_dly9;
    reg [31:0] v1_dly11;
    always @(posedge clk) v1_dly11 <= v1_dly10;
    reg [31:0] v1_dly12;
    always @(posedge clk) v1_dly12 <= v1_dly11;
    reg [31:0] v1_dly13;
    always @(posedge clk) v1_dly13 <= v1_dly12;
    reg [31:0] v1_dly14;
    always @(posedge clk) v1_dly14 <= v1_dly13;
    reg [31:0] v1_dly15;
    always @(posedge clk) v1_dly15 <= v1_dly14;
    reg [31:0] v1_dly16;
    always @(posedge clk) v1_dly16 <= v1_dly15;
    reg [31:0] v1_dly17;
    always @(posedge clk) v1_dly17 <= v1_dly16;
    reg [31:0] v1_dly18;
    always @(posedge clk) v1_dly18 <= v1_dly17;
    reg [31:0] v1_dly19;
    always @(posedge clk) v1_dly19 <= v1_dly18;
    reg [31:0] v1_dly20;
    always @(posedge clk) v1_dly20 <= v1_dly19;
    reg [31:0] v1_dly21;
    always @(posedge clk) v1_dly21 <= v1_dly20;
    reg [31:0] v1_dly22;
    always @(posedge clk) v1_dly22 <= v1_dly21;
    reg [31:0] v1_dly23;
    always @(posedge clk) v1_dly23 <= v1_dly22;
    reg [31:0] v1_dly24;
    always @(posedge clk) v1_dly24 <= v1_dly23;
    reg [31:0] v1_dly25;
    always @(posedge clk) v1_dly25 <= v1_dly24;
    reg [31:0] v1_dly26;
    always @(posedge clk) v1_dly26 <= v1_dly25;
    reg [31:0] v1_dly27;
    always @(posedge clk) v1_dly27 <= v1_dly26;
    reg [31:0] v1_dly28;
    always @(posedge clk) v1_dly28 <= v1_dly27;
    // balancing delay line for 11 (22 stages)
    reg [31:0] v11_dly1;
    always @(posedge clk) v11_dly1 <= v11;
    reg [31:0] v11_dly2;
    always @(posedge clk) v11_dly2 <= v11_dly1;
    reg [31:0] v11_dly3;
    always @(posedge clk) v11_dly3 <= v11_dly2;
    reg [31:0] v11_dly4;
    always @(posedge clk) v11_dly4 <= v11_dly3;
    reg [31:0] v11_dly5;
    always @(posedge clk) v11_dly5 <= v11_dly4;
    reg [31:0] v11_dly6;
    always @(posedge clk) v11_dly6 <= v11_dly5;
    reg [31:0] v11_dly7;
    always @(posedge clk) v11_dly7 <= v11_dly6;
    reg [31:0] v11_dly8;
    always @(posedge clk) v11_dly8 <= v11_dly7;
    reg [31:0] v11_dly9;
    always @(posedge clk) v11_dly9 <= v11_dly8;
    reg [31:0] v11_dly10;
    always @(posedge clk) v11_dly10 <= v11_dly9;
    reg [31:0] v11_dly11;
    always @(posedge clk) v11_dly11 <= v11_dly10;
    reg [31:0] v11_dly12;
    always @(posedge clk) v11_dly12 <= v11_dly11;
    reg [31:0] v11_dly13;
    always @(posedge clk) v11_dly13 <= v11_dly12;
    reg [31:0] v11_dly14;
    always @(posedge clk) v11_dly14 <= v11_dly13;
    reg [31:0] v11_dly15;
    always @(posedge clk) v11_dly15 <= v11_dly14;
    reg [31:0] v11_dly16;
    always @(posedge clk) v11_dly16 <= v11_dly15;
    reg [31:0] v11_dly17;
    always @(posedge clk) v11_dly17 <= v11_dly16;
    reg [31:0] v11_dly18;
    always @(posedge clk) v11_dly18 <= v11_dly17;
    reg [31:0] v11_dly19;
    always @(posedge clk) v11_dly19 <= v11_dly18;
    reg [31:0] v11_dly20;
    always @(posedge clk) v11_dly20 <= v11_dly19;
    reg [31:0] v11_dly21;
    always @(posedge clk) v11_dly21 <= v11_dly20;
    reg [31:0] v11_dly22;
    always @(posedge clk) v11_dly22 <= v11_dly21;
    // balancing delay line for 6 (1 stages)
    reg [31:0] v6_dly1;
    always @(posedge clk) v6_dly1 <= v6;
    wire [31:0] v1_c = in_xi - in_xj;
    reg [31:0] v1;
    always @(posedge clk) v1 <= v1_c;
    wire [31:0] v2_c = in_yi - in_yj;
    reg [31:0] v2;
    always @(posedge clk) v2 <= v2_c;
    wire [31:0] v3_c = in_zi - in_zj;
    reg [31:0] v3;
    always @(posedge clk) v3 <= v3_c;
    wire [31:0] v4_c = v1 * v1;
    reg [31:0] v4_p1;
    always @(posedge clk) v4_p1 <= v4_c;
    reg [31:0] v4_p2;
    always @(posedge clk) v4_p2 <= v4_p1;
    reg [31:0] v4;
    always @(posedge clk) v4 <= v4_p2;
    wire [31:0] v5_c = v2 * v2;
    reg [31:0] v5_p1;
    always @(posedge clk) v5_p1 <= v5_c;
    reg [31:0] v5_p2;
    always @(posedge clk) v5_p2 <= v5_p1;
    reg [31:0] v5;
    always @(posedge clk) v5 <= v5_p2;
    wire [31:0] v6_c = v3 * v3;
    reg [31:0] v6_p1;
    always @(posedge clk) v6_p1 <= v6_c;
    reg [31:0] v6_p2;
    always @(posedge clk) v6_p2 <= v6_p1;
    reg [31:0] v6;
    always @(posedge clk) v6 <= v6_p2;
    wire [31:0] v7_c = v4 + v5;
    reg [31:0] v7;
    always @(posedge clk) v7 <= v7_c;
    wire [31:0] v8_c = v7 + v6_dly1;
    reg [31:0] v8;
    always @(posedge clk) v8 <= v8_c;
    wire [31:0] v9_c = v8 + 7;
    reg [31:0] v9;
    always @(posedge clk) v9 <= v9_c;
    wire [31:0] v10_c = (v9 == 0) ? {32{1'b1}} : (32'd1 << 31) / v9;
    reg [31:0] v10_p1;
    always @(posedge clk) v10_p1 <= v10_c;
    reg [31:0] v10_p2;
    always @(posedge clk) v10_p2 <= v10_p1;
    reg [31:0] v10_p3;
    always @(posedge clk) v10_p3 <= v10_p2;
    reg [31:0] v10_p4;
    always @(posedge clk) v10_p4 <= v10_p3;
    reg [31:0] v10_p5;
    always @(posedge clk) v10_p5 <= v10_p4;
    reg [31:0] v10_p6;
    always @(posedge clk) v10_p6 <= v10_p5;
    reg [31:0] v10_p7;
    always @(posedge clk) v10_p7 <= v10_p6;
    reg [31:0] v10_p8;
    always @(posedge clk) v10_p8 <= v10_p7;
    reg [31:0] v10_p9;
    always @(posedge clk) v10_p9 <= v10_p8;
    reg [31:0] v10_p10;
    always @(posedge clk) v10_p10 <= v10_p9;
    reg [31:0] v10_p11;
    always @(posedge clk) v10_p11 <= v10_p10;
    reg [31:0] v10_p12;
    always @(posedge clk) v10_p12 <= v10_p11;
    reg [31:0] v10_p13;
    always @(posedge clk) v10_p13 <= v10_p12;
    reg [31:0] v10_p14;
    always @(posedge clk) v10_p14 <= v10_p13;
    reg [31:0] v10_p15;
    always @(posedge clk) v10_p15 <= v10_p14;
    reg [31:0] v10_p16;
    always @(posedge clk) v10_p16 <= v10_p15;
    reg [31:0] v10_p17;
    always @(posedge clk) v10_p17 <= v10_p16;
    reg [31:0] v10;
    always @(posedge clk) v10 <= v10_p17;
    wire [31:0] v11_c = in_qi * in_qj;
    reg [31:0] v11_p1;
    always @(posedge clk) v11_p1 <= v11_c;
    reg [31:0] v11_p2;
    always @(posedge clk) v11_p2 <= v11_p1;
    reg [31:0] v11;
    always @(posedge clk) v11 <= v11_p2;
    wire [31:0] v12_c = v11_dly22 * v10;
    reg [31:0] v12_p1;
    always @(posedge clk) v12_p1 <= v12_c;
    reg [31:0] v12_p2;
    always @(posedge clk) v12_p2 <= v12_p1;
    reg [31:0] v12;
    always @(posedge clk) v12 <= v12_p2;
    wire [31:0] v13_c = v12 >> 6;
    reg [31:0] v13;
    always @(posedge clk) v13 <= v13_c;
    wire [31:0] v14_c = v13 * v1_dly28;
    reg [31:0] v14_p1;
    always @(posedge clk) v14_p1 <= v14_c;
    reg [31:0] v14_p2;
    always @(posedge clk) v14_p2 <= v14_p1;
    reg [31:0] v14;
    always @(posedge clk) v14 <= v14_p2;
    assign out_pot = v13;
    assign out_fx = v14;
    // reduction into @potAcc
    always @(posedge clk) begin
        if (rst) acc_potAcc <= 0;
        else if (valid_r[28]) acc_potAcc <= v13 + acc_potAcc;
    end
endmodule

// Stream controller of @f0: offset windows and wave alignment.
module tytra_f0_sc (
    input  wire clk,
    input  wire rst,
    input  wire in_valid,
    input  wire [31:0] s_in_xi,
    input  wire [31:0] s_in_yi,
    input  wire [31:0] s_in_zi,
    input  wire [31:0] s_in_qi,
    input  wire [31:0] s_in_xj,
    input  wire [31:0] s_in_yj,
    input  wire [31:0] s_in_zj,
    input  wire [31:0] s_in_qj,
    output wire [31:0] s_out_pot,
    output wire [31:0] s_out_fx,
    output wire out_valid
);
    tytra_f0_dp u_dp (
        .clk(clk), .rst(rst), .in_valid(in_valid),
        .in_xi(s_in_xi),
        .in_yi(s_in_yi),
        .in_zi(s_in_zi),
        .in_qi(s_in_qi),
        .in_xj(s_in_xj),
        .in_yj(s_in_yj),
        .in_zj(s_in_zj),
        .in_qj(s_in_qj),
        .out_pot(s_out_pot),
        .out_fx(s_out_fx),
        .out_valid(out_valid));
endmodule

// Top: kernel boundary of module "lavamd" for HLS integration.
module tytra_top_lavamd (
    input  wire clk,
    input  wire rst,
    input  wire in_valid,
    input  wire [31:0] p_in_main_xi0,
    input  wire [31:0] p_in_main_yi0,
    input  wire [31:0] p_in_main_zi0,
    input  wire [31:0] p_in_main_qi0,
    input  wire [31:0] p_in_main_xj0,
    input  wire [31:0] p_in_main_yj0,
    input  wire [31:0] p_in_main_zj0,
    input  wire [31:0] p_in_main_qj0,
    output wire [31:0] p_out_main_pot0,
    output wire [31:0] p_out_main_fx0,
    input  wire [31:0] p_in_main_xi1,
    input  wire [31:0] p_in_main_yi1,
    input  wire [31:0] p_in_main_zi1,
    input  wire [31:0] p_in_main_qi1,
    input  wire [31:0] p_in_main_xj1,
    input  wire [31:0] p_in_main_yj1,
    input  wire [31:0] p_in_main_zj1,
    input  wire [31:0] p_in_main_qj1,
    output wire [31:0] p_out_main_pot1,
    output wire [31:0] p_out_main_fx1,
    input  wire [31:0] p_in_main_xi2,
    input  wire [31:0] p_in_main_yi2,
    input  wire [31:0] p_in_main_zi2,
    input  wire [31:0] p_in_main_qi2,
    input  wire [31:0] p_in_main_xj2,
    input  wire [31:0] p_in_main_yj2,
    input  wire [31:0] p_in_main_zj2,
    input  wire [31:0] p_in_main_qj2,
    output wire [31:0] p_out_main_pot2,
    output wire [31:0] p_out_main_fx2,
    input  wire [31:0] p_in_main_xi3,
    input  wire [31:0] p_in_main_yi3,
    input  wire [31:0] p_in_main_zi3,
    input  wire [31:0] p_in_main_qi3,
    input  wire [31:0] p_in_main_xj3,
    input  wire [31:0] p_in_main_yj3,
    input  wire [31:0] p_in_main_zj3,
    input  wire [31:0] p_in_main_qj3,
    output wire [31:0] p_out_main_pot3,
    output wire [31:0] p_out_main_fx3,
    output wire out_valid
);
    wire lane_valid_0;
    tytra_f0_sc u_lane_0 (.clk(clk), .rst(rst), .in_valid(in_valid), .s_in_xi(p_in_main_xi0), .s_in_yi(p_in_main_yi0), .s_in_zi(p_in_main_zi0), .s_in_qi(p_in_main_qi0), .s_in_xj(p_in_main_xj0), .s_in_yj(p_in_main_yj0), .s_in_zj(p_in_main_zj0), .s_in_qj(p_in_main_qj0), .s_out_pot(p_out_main_pot0), .s_out_fx(p_out_main_fx0), .out_valid(lane_valid_0));
    wire lane_valid_1;
    tytra_f0_sc u_lane_1 (.clk(clk), .rst(rst), .in_valid(in_valid), .s_in_xi(p_in_main_xi1), .s_in_yi(p_in_main_yi1), .s_in_zi(p_in_main_zi1), .s_in_qi(p_in_main_qi1), .s_in_xj(p_in_main_xj1), .s_in_yj(p_in_main_yj1), .s_in_zj(p_in_main_zj1), .s_in_qj(p_in_main_qj1), .s_out_pot(p_out_main_pot1), .s_out_fx(p_out_main_fx1), .out_valid(lane_valid_1));
    wire lane_valid_2;
    tytra_f0_sc u_lane_2 (.clk(clk), .rst(rst), .in_valid(in_valid), .s_in_xi(p_in_main_xi2), .s_in_yi(p_in_main_yi2), .s_in_zi(p_in_main_zi2), .s_in_qi(p_in_main_qi2), .s_in_xj(p_in_main_xj2), .s_in_yj(p_in_main_yj2), .s_in_zj(p_in_main_zj2), .s_in_qj(p_in_main_qj2), .s_out_pot(p_out_main_pot2), .s_out_fx(p_out_main_fx2), .out_valid(lane_valid_2));
    wire lane_valid_3;
    tytra_f0_sc u_lane_3 (.clk(clk), .rst(rst), .in_valid(in_valid), .s_in_xi(p_in_main_xi3), .s_in_yi(p_in_main_yi3), .s_in_zi(p_in_main_zi3), .s_in_qi(p_in_main_qi3), .s_in_xj(p_in_main_xj3), .s_in_yj(p_in_main_yj3), .s_in_zj(p_in_main_zj3), .s_in_qj(p_in_main_qj3), .s_out_pot(p_out_main_pot3), .s_out_fx(p_out_main_fx3), .out_valid(lane_valid_3));
    assign out_valid = lane_valid_0 & lane_valid_1 & lane_valid_2 & lane_valid_3;
endmodule
